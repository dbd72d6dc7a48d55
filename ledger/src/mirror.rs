//! A benchmark-owned copy of a session's evaluator.
//!
//! `Session::step` cannot be split from outside, so the traced pass keeps,
//! next to every live session, a [`Mirror`]: its own `StepEvaluator` over the
//! same compiled program, fed the identical `(input, state, old_state,
//! delta, view)` the session's private stepper sees.  Timing the mirror's
//! `StepEvaluator::step` gives `datalog.eval_*`; what remains of the
//! session's step after subtracting it (and the monitor hooks) is the core
//! layer's own work — cumulation, history pushes, `catch_unwind`, locks.
//!
//! The mirror's output must equal the session's, which is checked on every
//! step: a mirror that drifted would be timing the wrong work.

use rtx_core::{SessionDemand, SpocusTransducer};
use rtx_datalog::{
    magic_rewrite, ChangeClass, CompiledProgram, DemandGoal, EvalStats, Parallelism, ResidentDb,
    ResidentView, StepEvaluator,
};
use rtx_relational::{Instance, RelationName, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a mirror evaluates: the transducer's own output program, or its
/// magic-set rewrite for a session demand.  Built once per model and shared
/// by every mirror of that model.
#[derive(Debug)]
pub struct MirrorPlan {
    transducer: Arc<SpocusTransducer>,
    demand: Option<DemandParts>,
}

/// An input relation and the columns of it that seed a goal.
type Projection = (RelationName, Vec<usize>);

#[derive(Debug)]
struct DemandParts {
    compiled: CompiledProgram,
    /// Input relations plus the magic seed relations.
    volatile_schema: Schema,
    /// For each goal: its seed relation and the `(input relation, columns)`
    /// projections that seed it each step.
    seeds: Vec<(RelationName, Vec<Projection>)>,
}

impl MirrorPlan {
    pub fn plain(transducer: Arc<SpocusTransducer>) -> MirrorPlan {
        MirrorPlan {
            transducer,
            demand: None,
        }
    }

    /// The plan of a session opened with `demand` under
    /// `DemandPolicy::Demand`, rebuilt from the public rewrite API.
    pub fn demanded(
        transducer: Arc<SpocusTransducer>,
        demand: &SessionDemand,
    ) -> Result<MirrorPlan, String> {
        // Seeded (non-specialized, bound-pattern) goals are the only kind the
        // benchmark's demands use.
        let goals = demand
            .goals()
            .iter()
            .map(|goal| {
                DemandGoal::seeded(goal.relation().clone(), &goal.adornment().to_string())
                    .map(|g| g.with_seeds(goal.constants().iter().cloned()))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<DemandGoal>, String>>()?;
        let rewrite =
            magic_rewrite(transducer.output_program(), &goals).map_err(|e| e.to_string())?;
        let volatile_schema = transducer
            .schema()
            .input()
            .union(rewrite.magic_schema())
            .map_err(|e| e.to_string())?;
        let seeds = demand
            .goals()
            .iter()
            .filter_map(|goal| {
                let relation = rewrite.seed_relation(goal.relation(), goal.adornment())?;
                Some((relation.clone(), goal.projections().to_vec()))
            })
            .collect();
        let compiled =
            CompiledProgram::compile_demand_program(rewrite).map_err(|e| e.to_string())?;
        Ok(MirrorPlan {
            transducer,
            demand: Some(DemandParts {
                compiled,
                volatile_schema,
                seeds,
            }),
        })
    }

    fn compiled(&self) -> &CompiledProgram {
        match &self.demand {
            Some(parts) => &parts.compiled,
            None => self.transducer.compiled_output_program(),
        }
    }
}

/// One session's mirrored evaluator and cumulative state.
#[derive(Debug)]
pub struct Mirror {
    plan: Arc<MirrorPlan>,
    evaluator: StepEvaluator,
    view: ResidentView,
    state: Instance,
    old_state: Instance,
    delta: Instance,
}

/// One mirrored step: the output the session must also have produced, how
/// long the evaluator took, and its counters.
#[derive(Debug)]
pub struct MirrorStep {
    pub output: Instance,
    pub eval: Duration,
    pub stats: EvalStats,
}

impl Mirror {
    pub fn new(
        plan: &Arc<MirrorPlan>,
        db: &ResidentDb,
        parallelism: Parallelism,
    ) -> Result<Mirror, String> {
        let schema = plan.transducer.schema();
        let (input, state) = (schema.input().clone(), schema.state().clone());
        let magic: Vec<RelationName> = plan
            .demand
            .iter()
            .flat_map(|parts| parts.seeds.iter().map(|(relation, _)| relation.clone()))
            .collect();
        // The classification `Runtime::open_session*` gives its stepper.
        let classify = move |name: &RelationName| {
            if input.contains(name.clone()) || magic.contains(name) {
                ChangeClass::Volatile
            } else if state.contains(name.clone()) {
                ChangeClass::GrowOnly
            } else {
                ChangeClass::Static
            }
        };
        let evaluator = StepEvaluator::new(plan.compiled(), classify)
            .map_err(|e| e.to_string())?
            .with_parallelism(parallelism);
        let empty = Instance::empty(schema.state());
        Ok(Mirror {
            plan: Arc::clone(plan),
            evaluator,
            view: db.view_for(plan.compiled()),
            state: empty.clone(),
            old_state: empty.clone(),
            delta: empty,
        })
    }

    pub fn cached_rows(&self) -> usize {
        self.evaluator.cached_rows()
    }

    /// Evaluates `input` as the session's next step.  Only the
    /// `StepEvaluator::step` call is timed.
    pub fn step(&mut self, db: &ResidentDb, input: &Instance) -> Result<MirrorStep, String> {
        let plan = Arc::clone(&self.plan);
        let compiled = plan.compiled();
        if !db.view_is_current(&self.view) {
            let stale = db.stale_relations(&self.view);
            self.view = db.view_for(compiled);
            self.evaluator.invalidate_relations(&stale);
        }
        let schema = plan.transducer.schema();
        let (derived, eval, stats) = match &plan.demand {
            None => self.timed(compiled, input)?,
            Some(parts) => {
                let rewrite = compiled.demand().expect("demand-compiled");
                let mut seeds = rewrite.seed_instance();
                for (seed_relation, projections) in &parts.seeds {
                    for (input_relation, columns) in projections {
                        for tuple in input.get(input_relation).into_iter().flat_map(|r| r.iter()) {
                            let key = tuple
                                .project(columns)
                                .ok_or("seed projection out of range")?;
                            seeds
                                .insert(seed_relation.clone(), key)
                                .map_err(|e| e.to_string())?;
                        }
                    }
                }
                let mut volatile = Instance::empty(&parts.volatile_schema);
                volatile.absorb(input).map_err(|e| e.to_string())?;
                volatile.absorb(&seeds).map_err(|e| e.to_string())?;
                let (derived, eval, stats) = self.timed(compiled, &volatile)?;
                (rewrite.restrict_with(&derived, Some(&seeds)), eval, stats)
            }
        };
        let mut output = Instance::empty(schema.output());
        output.absorb(&derived).map_err(|e| e.to_string())?;

        // Cumulation, as the session's stepper does it: past-R := past-R ∪ R.
        let mut next = self.state.clone();
        let mut delta = Instance::empty(schema.state());
        for (name, relation) in input.iter() {
            let past = name.past();
            if relation.is_empty() || next.get(&past).is_none() {
                continue;
            }
            let previous = self.state.get(&past).expect("state mirrors next");
            for tuple in relation.iter().filter(|t| !previous.contains(t)) {
                delta
                    .insert(past.clone(), tuple.clone())
                    .map_err(|e| e.to_string())?;
            }
            next.absorb_relation(past, relation)
                .map_err(|e| e.to_string())?;
        }
        self.old_state = std::mem::replace(&mut self.state, next);
        self.delta = delta;
        Ok(MirrorStep {
            output,
            eval,
            stats,
        })
    }

    fn timed(
        &mut self,
        compiled: &CompiledProgram,
        volatile: &Instance,
    ) -> Result<(Instance, Duration, EvalStats), String> {
        let start = Instant::now();
        let result = self.evaluator.step(
            compiled,
            volatile,
            &self.state,
            &self.old_state,
            &self.delta,
            &self.view,
        );
        let eval = start.elapsed();
        let (derived, stats) = result.map_err(|e| e.to_string())?;
        Ok((derived, eval, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_core::ShardedRuntime;

    /// The mirror reproduces a real session's outputs, plain and demanded,
    /// including across a catalog mutation.
    #[test]
    fn mirrors_agree_with_sessions() {
        let db = Arc::new(ResidentDb::new(rtx_workloads::category_catalog(300, 6, 4)));
        let runtime = ShardedRuntime::shared_with(Arc::clone(&db), 1, Parallelism::sequential());

        let category = Arc::new(rtx_workloads::category_model());
        let prices = crate::gen::PriceTable::of(&db.snapshot());
        let script =
            crate::gen::customer_script(&mut crate::gen::stream_rng(1, 0), &prices, 24, 300, 1.0);
        let plan = Arc::new(MirrorPlan::plain(Arc::clone(&category)));
        let mut mirror = Mirror::new(&plan, &db, Parallelism::sequential()).unwrap();
        let mut session = runtime
            .open_session("plain", Arc::clone(&category))
            .unwrap();
        for (i, input) in script.iter().enumerate() {
            if i == 12 {
                let row = rtx_relational::Tuple::new(vec![
                    rtx_relational::Value::str("p1"),
                    rtx_relational::Value::int(123_456),
                ]);
                db.insert("price", row).unwrap();
            }
            let mirrored = mirror.step(&db, input).unwrap();
            assert_eq!(session.step(input).unwrap(), mirrored.output, "step {i}");
            assert_eq!(session.last_stats(), mirrored.stats, "step {i}");
        }
        assert!(mirror.cached_rows() > 0);

        let storefront = Arc::new(rtx_workloads::storefront_model());
        let demand = rtx_workloads::storefront_demand();
        let plan = Arc::new(MirrorPlan::demanded(Arc::clone(&storefront), &demand).unwrap());
        let mut mirror = Mirror::new(&plan, &db, Parallelism::sequential()).unwrap();
        let mut session = runtime
            .open_session_with_demand("demand", storefront, demand)
            .unwrap();
        for input in rtx_workloads::browse_session(12, 300, 3).iter() {
            let mirrored = mirror.step(&db, input).unwrap();
            assert_eq!(session.step(input).unwrap(), mirrored.output);
            assert_eq!(session.last_stats(), mirrored.stats);
            assert!(!mirrored.output.relation("detail").unwrap().is_empty());
        }
    }
}
