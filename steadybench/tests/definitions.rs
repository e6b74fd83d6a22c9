//! The workload definitions agree with each other and with
//! `BENCHMARK.json`: same workloads in the same order, pins at the
//! default and held-out seeds (with the shattering layer's counters on
//! `det_ruling_k2`), and one layer→metric prediction per per-layer
//! metric.

use powersparse_workloads::Json;
use steadybench::spec;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names<'a>(doc: &'a Json, list: &str, key: &str) -> Vec<&'a str> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing `{list}`"))
        .iter()
        .map(|e| e.get(key).and_then(Json::as_str).expect("name"))
        .collect()
}

#[test]
fn definitions_agree_with_the_benchmark_manifest() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let bench = load(&format!("{dir}/../BENCHMARK.json"));
    let defs = load(&format!("{dir}/workloads.json"));
    let workloads = spec::workloads();

    let defined: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(defined, names(&bench, "workloads", "name"));

    let seed = |key: &str| defs.get(key).and_then(Json::as_u64).expect(key);
    for w in &workloads {
        assert_eq!(w.scenario.seed, seed("default_seed"), "{}", w.name);
        for s in [seed("default_seed"), seed("held_out_seed")] {
            let pin = w.pin(s);
            assert!(pin.is_some(), "{} has no pin at seed {s}", w.name);
            assert_eq!(
                pin.unwrap().shatter.is_some(),
                w.name == "det_ruling_k2",
                "{} at seed {s}: the shattering layer is pinned on det_ruling_k2 only",
                w.name
            );
        }
    }

    // Every listed per-layer metric has a prediction, and every
    // prediction names a listed per-layer metric, the end-to-end metric
    // it moves ("none" for a layer outside every gated workload) and the
    // workload it is measured on.
    let end_to_end = names(&bench, "end_to_end", "name");
    let layers = names(&bench, "per_layer", "name");
    let predictions = defs.get("predictions").and_then(Json::as_arr).unwrap();
    let mut predicted = Vec::new();
    for p in predictions {
        let field = |k: &str| p.get(k).and_then(Json::as_str).expect(k);
        assert!(
            field("moves") == "none" || end_to_end.contains(&field("moves")),
            "{p:?}"
        );
        assert!(defined.contains(&field("on")), "{p:?}");
        assert!(
            layers.contains(&field("layer")),
            "{p:?} names a metric BENCHMARK.json does not list"
        );
        predicted.push(field("layer"));
    }
    for layer in &layers {
        assert!(predicted.contains(layer), "no prediction for {layer}");
    }
}
