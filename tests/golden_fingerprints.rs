//! Golden request identities.
//!
//! Plan fingerprints and request fingerprints are persisted: a run journal's
//! header records the plan fingerprint, and every journal entry and cache
//! key is a `request_fingerprint`. The constants below were computed by an
//! earlier release of the prompt renderer and hasher; if one of these tests
//! fails, journals written by earlier versions will no longer resume (the
//! header check rejects them, or completed requests re-dispatch and bill
//! twice). Fix the renderer or the hash, never the constants.

use llm_data_preprocessors::core::exec::ExecutionPlan;
use llm_data_preprocessors::core::{PipelineConfig, PlanStream};
use llm_data_preprocessors::datasets::dataset_by_name;
use llm_data_preprocessors::llm::{ModelProfile, SimulatedLlm};
use std::sync::Arc;

const SCALE: f64 = 0.1;
const SEED: u64 = 7;

/// One small dataset per task, batches of three. `(dataset, temperature,
/// plan fingerprint, first three request fingerprints)`; type hints and
/// informative-feature selection are taken from the dataset.
const GOLDEN: [(&str, Option<f64>, u64, [u64; 3]); 4] = [
    (
        "Hospital",
        None,
        0x210d5102733d1720,
        [0xd89b206959d7fb5f, 0xb3a144c3f815769a, 0x1133a4320e3c1573],
    ),
    (
        "Restaurant",
        None,
        0x3f29899af594a8e,
        [0xf3fe50a35f4ba681, 0x2b4563dd0d749856, 0x37baf6c3d43af7b9],
    ),
    (
        "Synthea",
        Some(0.3),
        0x83d08e48e37dfef7,
        [0xb0648ce7ae45b6a1, 0x2c5e2fe1295ade9c, 0x263fbcda0257ce8a],
    ),
    (
        "Beer",
        Some(0.2),
        0x5f59d7c93edc0316,
        [0x2db572a9733880cb, 0x4db3573f9ee532e4, 0xb8358343b442f27c],
    ),
];

#[test]
fn plan_and_request_fingerprints_match_earlier_releases() {
    let mut actual = Vec::new();
    for (name, temperature, _, _) in GOLDEN {
        let ds = dataset_by_name(name, SCALE, SEED).expect("known dataset");
        let model =
            SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(ds.kb.clone())).with_seed(SEED);
        let mut config = PipelineConfig::best(ds.task);
        config.seed = SEED;
        config.batch_size = 3;
        config.temperature = temperature;
        config.type_hint = ds.type_hint.clone();
        config.feature_indices = ds.informative_features.clone();
        let plan = ExecutionPlan::build(&model, &config, &ds.instances, &ds.few_shot);
        let stream = PlanStream::new(&model, &config, &ds.instances, &ds.few_shot, 4);
        assert_eq!(stream.fingerprint(), plan.fingerprint(), "{name}");
        let first: [u64; 3] = plan.fingerprints()[..3].try_into().expect("three requests");
        actual.push((name, temperature, plan.fingerprint(), first));
    }
    let table: String = actual
        .iter()
        .map(|(name, t, plan, first)| {
            format!(
                "    ({name:?}, {t:?}, {plan:#x}, [{:#x}, {:#x}, {:#x}]),\n",
                first[0], first[1], first[2]
            )
        })
        .collect();
    for (want, got) in GOLDEN.iter().zip(&actual) {
        assert!(
            want.2 == got.2 && want.3 == got.3,
            "{}: request identity changed; journals written by earlier versions \
             would no longer resume. Computed:\n{table}",
            want.0
        );
    }
}
