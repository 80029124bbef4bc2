//! Seeded inputs: telephony provenance from `cobra_datagen`, the
//! perturbation and edit streams, and the wire requests built from them.
//! The server only ever sees the generated request text.

use cobra_datagen::telephony::{Telephony, TelephonyConfig, PLANS};
use cobra_provenance::{PolySet, VarRegistry};
use cobra_server::json::Json;
use cobra_util::{Rat, SplitMix64};

/// The paper's Fig. 2 abstraction tree over the plan variables.
pub const FIG2: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

/// Zip codes at the paper's §4 scale (139,260 = 1,055 × 11 × 12).
pub const PAPER_ZIPS: usize = 1055;
/// Customers at the paper's §4 scale.
pub const PAPER_CUSTOMERS: usize = 1_000_000;
/// The paper's two §4 bounds at full scale.
pub const PAPER_BOUNDS: [u64; 2] = [94_600, 38_600];
/// Full and compressed sizes the paper reports at those bounds.
pub const PAPER_SIZES: [u64; 3] = [139_260, 88_620, 37_980];
/// Months of call data (the paper's full year).
const MONTHS: u32 = 12;

/// One telephony provenance set and its text interchange form.
pub struct Dataset {
    pub reg: VarRegistry,
    pub polys: PolySet<Rat>,
    /// `label = polynomial` lines, as a wire `prepare` carries them.
    pub text: String,
    /// The paper's two bounds scaled to this zip count.
    pub bounds: [u64; 2],
}

impl Dataset {
    /// Telephony revenue provenance over `zips` zip codes at the paper's
    /// customer density; `seed` varies durations and prices, never the
    /// shape, so sizes are the same for every seed.
    pub fn telephony(zips: usize, seed: u64) -> Dataset {
        let customers = if zips == PAPER_ZIPS {
            PAPER_CUSTOMERS
        } else {
            zips * PAPER_CUSTOMERS / PAPER_ZIPS
        };
        let config = TelephonyConfig {
            customers,
            zips,
            months: MONTHS,
            seed: SplitMix64::new(seed).next_u64(),
        };
        let mut reg = VarRegistry::new();
        let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
        let text = polys.display(&reg).to_string();
        let bounds = PAPER_BOUNDS.map(|b| b * zips as u64 / PAPER_ZIPS as u64);
        Dataset {
            reg,
            polys,
            text,
            bounds,
        }
    }

    /// Polynomial labels (one per zip), in set order.
    pub fn labels(&self) -> Vec<String> {
        self.polys.iter().map(|(l, _)| l.to_owned()).collect()
    }
}

/// Every variable a perturbation may touch: the 11 plan variables and
/// the 12 month variables.
pub fn scenario_vars() -> Vec<String> {
    PLANS
        .iter()
        .map(|(_, v)| (*v).to_owned())
        .chain((1..=MONTHS).map(|m| format!("m{m}")))
        .collect()
}

/// A single-variable perturbation: `var` scaled by `permille / 1000`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Perturbation {
    pub var: String,
    pub permille: u32,
}

impl Perturbation {
    /// A seeded perturbation between −20% and +20%.
    pub fn draw(rng: &mut SplitMix64, vars: &[String]) -> Perturbation {
        Perturbation {
            var: rng.choose(vars).clone(),
            permille: 800 + rng.gen_range(401) as u32,
        }
    }

    /// The factor as wire text (`"0.987"`).
    pub fn factor_text(&self) -> String {
        format!("{}.{:03}", self.permille / 1000, self.permille % 1000)
    }

    /// The factor as an exact rational.
    pub fn factor(&self) -> Rat {
        Rat::new(i128::from(self.permille), 1000)
    }
}

/// One commuting, coefficient-only edit: add `cents` to the coefficient
/// of an existing `plan × month` monomial of one zip's polynomial.
#[derive(Clone, Debug)]
pub struct Edit {
    pub poly: String,
    pub term: String,
}

impl Edit {
    /// A seeded edit on one of `labels`.
    pub fn draw(rng: &mut SplitMix64, labels: &[String]) -> Edit {
        let (_, plan) = PLANS[rng.gen_index(PLANS.len())];
        let month = 1 + rng.gen_range(u64::from(MONTHS));
        let cents = 1 + rng.gen_range(99);
        Edit {
            poly: rng.choose(labels).clone(),
            term: format!("0.{cents:02}*{plan}*m{month}"),
        }
    }
}

fn request(id: u64, op: &str, session: &str, mut rest: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("id".to_owned(), Json::Num(id as f64)),
        ("op".to_owned(), Json::Str(op.to_owned())),
        ("session".to_owned(), Json::Str(session.to_owned())),
    ];
    members.append(&mut rest);
    Json::Obj(members).to_string()
}

/// `prepare` from polynomial text, or (with `polys: None`) a reload of a
/// persisted session.
pub fn prepare(id: u64, session: &str, polys: Option<&str>, persist: bool, dag: bool) -> String {
    let mut rest = Vec::new();
    if let Some(polys) = polys {
        rest.push(("polys".to_owned(), Json::Str(polys.to_owned())));
        rest.push(("tree".to_owned(), Json::Str(FIG2.to_owned())));
    }
    rest.push(("persist".to_owned(), Json::Bool(persist)));
    rest.push(("dag".to_owned(), Json::Bool(dag)));
    request(id, "prepare", session, rest)
}

/// Exact `assign` of one scenario.
pub fn assign(id: u64, session: &str, scenario: &[Perturbation]) -> String {
    let members = scenario
        .iter()
        .map(|p| (p.var.clone(), Json::Str(p.factor_text())))
        .collect();
    request(
        id,
        "assign",
        session,
        vec![("scenario".to_owned(), Json::Obj(members))],
    )
}

/// `sweep_fold_f64` over single-variable perturbations.
pub fn sweep(id: u64, session: &str, perturbations: &[Perturbation]) -> String {
    let rows = perturbations
        .iter()
        .map(|p| Json::Arr(vec![Json::Str(p.var.clone()), Json::Str(p.factor_text())]))
        .collect();
    request(
        id,
        "sweep_fold_f64",
        session,
        vec![("scenarios".to_owned(), Json::Arr(rows))],
    )
}

/// `select_bound`.
pub fn select_bound(id: u64, session: &str, bound: u64) -> String {
    request(
        id,
        "select_bound",
        session,
        vec![("bound".to_owned(), Json::Num(bound as f64))],
    )
}

/// `apply_delta` of coefficient-only `add` edits.
pub fn apply_delta(id: u64, session: &str, edits: &[Edit]) -> String {
    let ops = edits
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("poly".to_owned(), Json::Str(e.poly.clone())),
                ("action".to_owned(), Json::Str("add".to_owned())),
                ("term".to_owned(), Json::Str(e.term.clone())),
            ])
        })
        .collect();
    request(
        id,
        "apply_delta",
        session,
        vec![("ops".to_owned(), Json::Arr(ops))],
    )
}
