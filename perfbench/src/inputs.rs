//! Workload inputs, all generated offline: the score pool, the session
//! line-up, and the exact request lines each session sends, with the
//! response each one must get.
//!
//! As in the paper, the pool is one fixed dataset per workload and the
//! workload seed drives the samplers' randomness: it seeds every session,
//! so two runs differ the way two of the paper's repeats do.
//!
//! Request scripts come from an in-process reference [`Session`] fed the
//! same seed, proposals and labels the wire session will see, so the
//! generator holds the truth for every label *and* the bit-exact estimate
//! the server must end on.

use er_core::datasets::DatasetProfile;
use experiments::pools::{direct_pool, ExperimentPool};
use oasis::{OasisConfig, SamplerMethod, ScoredPool};
use oasis_engine::{LabelSource, Session};
use serde::json::{Json, ToJson};
use std::fmt::Write as _;
use std::sync::Arc;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Crowd annotators labelling one item per request over the evented
    /// TCP server with a durable store.
    Annotate,
    /// A labelling back end pulling 256 items per request over the blocking
    /// TCP server with a durable store.
    BatchLabel,
    /// A researcher reproducing the method comparison in process.
    Simulate,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "annotate" => Some(Workload::Annotate),
            "batch_label" => Some(Workload::BatchLabel),
            "simulate" => Some(Workload::Simulate),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Annotate => "annotate",
            Workload::BatchLabel => "batch_label",
            Workload::Simulate => "simulate",
        }
    }

    /// Dataset profile the score pool is drawn from, at paper scale.
    pub fn profile(self) -> DatasetProfile {
        match self {
            Workload::Annotate => DatasetProfile::abt_buy(),
            Workload::BatchLabel | Workload::Simulate => DatasetProfile::amazon_google(),
        }
    }

    /// Items proposed (and labelled) per `propose`/`label` exchange.
    pub fn batch(self) -> usize {
        match self {
            Workload::Annotate | Workload::Simulate => 1,
            Workload::BatchLabel => 256,
        }
    }

    /// Whether the wire workload's connections send concurrently, each from
    /// its own generator thread.  `annotate` keeps one request outstanding
    /// at a time: its requests take tens of microseconds, and a third
    /// runnable thread on a 2-vCPU machine puts scheduling delays into
    /// every round trip's tail.
    pub fn concurrent(self) -> bool {
        self == Workload::BatchLabel
    }

    /// Whether the wire workload runs `oasis-serve --evented`.
    pub fn evented(self) -> bool {
        self == Workload::Annotate
    }

    /// The session line-up of one cycle.  Seeds differ per cycle so the
    /// cycles of a run add repeats rather than replay one.
    pub fn sessions(self, seed: u64, cycle: u64) -> Vec<SessionSpec> {
        let lineup: Vec<(SamplerMethod, Option<usize>)> = match self {
            Workload::Annotate => vec![(SamplerMethod::Oasis, None); 32],
            Workload::BatchLabel => vec![
                (SamplerMethod::Oasis, None),
                (SamplerMethod::Oasis, Some(16)),
                (SamplerMethod::Passive, None),
                (SamplerMethod::Passive, None),
                (SamplerMethod::Importance, None),
                (SamplerMethod::Importance, None),
                (SamplerMethod::Stratified, None),
                (SamplerMethod::Stratified, None),
            ],
            Workload::Simulate => (0..SIMULATE_SEEDS).flat_map(|_| SIMULATE_LINEUP).collect(),
        };
        lineup
            .into_iter()
            .enumerate()
            .map(|(index, (method, shards))| SessionSpec {
                id: format!("s{index:02}"),
                method,
                shards,
                // Below 2^53, so the seed survives a JSON number exactly.
                seed: (seed % 1_000_000) * 1_000_000 + cycle * 1_000 + index as u64,
            })
            .collect()
    }
}

/// The paper's comparison: the four methods plus a sharded OASIS.
const SIMULATE_LINEUP: [(SamplerMethod, Option<usize>); 5] = [
    (SamplerMethod::Oasis, None),
    (SamplerMethod::Passive, None),
    (SamplerMethod::Importance, None),
    (SamplerMethod::Stratified, None),
    (SamplerMethod::Oasis, Some(16)),
];

/// Repeats of the line-up per `simulate` cycle.
pub const SIMULATE_SEEDS: usize = 4;

/// Seed of the score model draw that makes each workload's pool.
pub const POOL_SEED: u64 = 2017;

/// Id the pool is loaded under.
pub const POOL_ID: &str = "pool";

/// One session to create.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session id.
    pub id: String,
    /// Sampling method.
    pub method: SamplerMethod,
    /// Shard count, or `None` for a flat sampler.
    pub shards: Option<usize>,
    /// Session seed.
    pub seed: u64,
}

impl SessionSpec {
    /// Build the in-process session this spec describes.
    ///
    /// # Panics
    /// If the sampler cannot be built (the line-ups are all valid).
    pub fn session(&self, pool: &Arc<ScoredPool>, source: LabelSource) -> Session {
        Session::new_sharded(
            self.id.clone(),
            POOL_ID,
            Arc::clone(pool),
            self.method,
            OasisConfig::default(),
            self.shards,
            self.seed,
            source,
        )
        .expect("benchmark session specs are valid")
    }

    /// The `create_session` request line for an externally labelled
    /// session.
    pub fn create_line(&self) -> Vec<u8> {
        let mut line = format!(
            r#"{{"cmd":"create_session","session":"{}","pool":"{POOL_ID}","seed":{},"method":"{}""#,
            self.id,
            self.seed,
            self.method.as_str()
        );
        if let Some(shards) = self.shards {
            let _ = write!(line, r#","shards":{shards}"#);
        }
        line.push_str("}\n");
        line.into_bytes()
    }

    /// The `estimate` request line.
    pub fn estimate_line(&self) -> Vec<u8> {
        format!("{{\"cmd\":\"estimate\",\"session\":\"{}\"}}\n", self.id).into_bytes()
    }
}

/// The workload's pool plus everything derived from it once per run.
pub struct PoolData {
    /// The generated pool, its truth and true F-measure.
    pub experiment: ExperimentPool,
    /// The pool, shareable across sessions.
    pub pool: Arc<ScoredPool>,
    /// The `load_pool` request line.
    pub load_line: Vec<u8>,
}

impl PoolData {
    /// Draw the workload's pool from its dataset profile's score model.
    pub fn generate(workload: Workload) -> PoolData {
        let experiment = direct_pool(&workload.profile(), 1.0, true, POOL_SEED);
        let mut request = Json::object();
        request.set("cmd", Json::String("load_pool".to_string()));
        request.set("pool", Json::String(POOL_ID.to_string()));
        request.set("scores", experiment.pool.scores().to_vec().to_json());
        request.set(
            "predictions",
            experiment.pool.predictions().to_vec().to_json(),
        );
        let mut load_line = request.render().into_bytes();
        load_line.push(b'\n');
        PoolData {
            pool: Arc::new(experiment.pool.clone()),
            experiment,
            load_line,
        }
    }

    /// The pool's hidden ground truth.
    pub fn truth(&self) -> &[bool] {
        &self.experiment.truth
    }
}

/// What a response must contain.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A `propose` answer: these `(ticket, item)` proposals, in order.
    Proposals(Vec<(u64, usize)>),
    /// A `label` answer applying this many labels.
    Applied(usize),
    /// An `estimate` answer whose `estimate` object renders to this text.
    Estimate(String),
}

/// One request line and the response it must get.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request, newline-terminated.
    pub line: Vec<u8>,
    /// What the response must say.
    pub expect: Expect,
    /// Labels this request applies.
    pub labels: usize,
}

/// One session's whole script: `rounds` propose/label pairs, then a final
/// estimate.
pub struct Script {
    /// The session.
    pub spec: SessionSpec,
    /// The requests in order.
    pub exchanges: Vec<Exchange>,
    /// The reference estimate's F-measure at the end of the script.
    pub final_f: f64,
}

/// Run the reference session for `rounds` rounds of `batch` proposals,
/// labelling each with the truth, and record the request lines.
pub fn script(data: &PoolData, spec: &SessionSpec, rounds: usize, batch: usize) -> Script {
    let truth = data.truth();
    let mut session = spec.session(&data.pool, LabelSource::external(data.pool.len()));
    let mut exchanges = Vec::with_capacity(2 * rounds + 1);
    for _ in 0..rounds {
        let tickets = session.propose(batch).expect("external sessions propose");
        exchanges.push(Exchange {
            line: format!(
                "{{\"cmd\":\"propose\",\"session\":\"{}\",\"count\":{batch}}}\n",
                spec.id
            )
            .into_bytes(),
            expect: Expect::Proposals(tickets.iter().map(|t| (t.id, t.proposal.item)).collect()),
            labels: 0,
        });
        let labels: Vec<(u64, bool)> = tickets
            .iter()
            .map(|t| (t.id, truth[t.proposal.item]))
            .collect();
        let applied = session.apply_labels(&labels).expect("tickets are pending");
        exchanges.push(Exchange {
            line: label_line(&spec.id, &labels),
            expect: Expect::Applied(applied),
            labels: applied,
        });
    }
    let estimate = session.estimate();
    exchanges.push(Exchange {
        line: spec.estimate_line(),
        expect: Expect::Estimate(estimate.to_json().render()),
        labels: 0,
    });
    Script {
        spec: spec.clone(),
        exchanges,
        final_f: estimate.f_measure,
    }
}

fn label_line(session: &str, labels: &[(u64, bool)]) -> Vec<u8> {
    let mut line = format!(r#"{{"cmd":"label","session":"{session}","labels":["#);
    for (index, (ticket, label)) in labels.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        let _ = write!(line, r#"{{"ticket":{ticket},"label":{label}}}"#);
    }
    line.push_str("]}\n");
    line.into_bytes()
}

/// Whether a response line is a JSON object with `"ok": true`.
pub fn is_ok(response: &str) -> bool {
    Json::parse(response).is_ok_and(|value| value.get("ok") == Some(&Json::Bool(true)))
}

/// Check one response line against its expectation.  Every response must
/// be `ok:true`.
pub fn check(response: &str, expect: &Expect) -> bool {
    let Ok(value) = Json::parse(response) else {
        return false;
    };
    if value.get("ok") != Some(&Json::Bool(true)) {
        return false;
    }
    match expect {
        Expect::Proposals(expected) => {
            let Some(Ok(proposals)) = value.get("proposals").map(Json::as_array) else {
                return false;
            };
            proposals.len() == expected.len()
                && proposals
                    .iter()
                    .zip(expected)
                    .all(|(got, &(ticket, item))| {
                        got.get("ticket").and_then(|t| t.as_u64().ok()) == Some(ticket)
                            && got.get("item").and_then(|i| i.as_usize().ok()) == Some(item)
                    })
        }
        Expect::Applied(applied) => {
            value.get("applied").and_then(|a| a.as_usize().ok()) == Some(*applied)
        }
        Expect::Estimate(estimate) => {
            value.get("estimate").map(Json::render) == Some(estimate.clone())
        }
    }
}

/// `|F̂ − F|` with an undefined estimate read as 0, as `Estimate::to_measures`
/// does.
pub fn abs_error(estimate: f64, truth: f64) -> f64 {
    let estimate = if estimate.is_finite() { estimate } else { 0.0 };
    (estimate - truth).abs()
}

/// Order every session's exchanges for one connection: round by round
/// across the connection's sessions (closed loop), final estimates last.
/// Returns `(script index, exchange index)` pairs.
pub fn schedule(scripts: &[Script], connection: usize, connections: usize) -> Vec<(usize, usize)> {
    let mine: Vec<usize> = (connection..scripts.len()).step_by(connections).collect();
    let longest = mine
        .iter()
        .map(|&s| scripts[s].exchanges.len())
        .max()
        .unwrap_or(0);
    let mut order = Vec::new();
    // Propose/label pairs stay adjacent; the final estimate is last.
    for pair in 0..longest.saturating_sub(1) / 2 {
        for &s in &mine {
            if 2 * pair + 1 < scripts[s].exchanges.len() - 1 {
                order.push((s, 2 * pair));
                order.push((s, 2 * pair + 1));
            }
        }
    }
    for &s in &mine {
        order.push((s, scripts[s].exchanges.len() - 1));
    }
    order
}
