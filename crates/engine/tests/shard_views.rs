//! A sharded session reads its pool through views: each shard's sub-pool
//! aliases the storage of the pool `load_pool` registered, for a live
//! session and for one restored from its checkpoint, so a shard count costs
//! no second copy of the pool.

use oasis::samplers::AnySampler;
use oasis_engine::server::serve_lines;
use oasis_engine::Engine;
use serde::json::Json;
use std::io::Cursor;

fn run_script(engine: &Engine, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_lines(engine, Cursor::new(script.to_string()), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Assert every shard of `session`'s sampler is a view into `pool`'s
/// storage at its offset.
fn assert_views(engine: &Engine, session: &str) {
    let pool = engine.pool("p").unwrap();
    let handle = engine.session(session).unwrap();
    let session = handle.lock();
    let AnySampler::Sharded(sampler) = session.sampler() else {
        panic!("session {} is not sharded", session.id());
    };
    let scores = pool.scores().as_ptr_range();
    let predictions = pool.predictions().as_ptr_range();
    let shards = sampler.pool();
    assert_eq!(shards.shard_count(), 3);
    for s in 0..shards.shard_count() {
        let shard = shards.shard(s);
        let start = shards.item_offset(s);
        assert_eq!(shard.scores().as_ptr(), pool.scores()[start..].as_ptr());
        assert!(shard.scores().as_ptr_range().end <= scores.end);
        assert_eq!(
            shard.predictions().as_ptr(),
            pool.predictions()[start..].as_ptr()
        );
        assert!(shard.predictions().as_ptr_range().end <= predictions.end);
    }
}

#[test]
fn shard_sub_pools_alias_the_loaded_pool_live_and_after_restore() {
    let engine = Engine::new();
    let scores: Vec<String> = (0..64)
        .map(|i| format!("{}", f64::from(i) / 64.0))
        .collect();
    let predictions: Vec<&str> = (0..64)
        .map(|i| if i >= 48 { "true" } else { "false" })
        .collect();
    let script = format!(
        "{}\n{}\n{}\n{}\n",
        format_args!(
            r#"{{"cmd":"load_pool","pool":"p","scores":[{}],"predictions":[{}]}}"#,
            scores.join(","),
            predictions.join(",")
        ),
        r#"{"cmd":"create_session","session":"live","pool":"p","seed":5,"shards":3,"config":{"strata_count":4}}"#,
        r#"{"cmd":"propose","session":"live","count":6}"#,
        r#"{"cmd":"checkpoint","session":"live"}"#,
    );
    let responses = run_script(&engine, &script);
    for response in &responses {
        assert!(response.contains(r#""ok":true"#), "{response}");
    }
    assert_views(&engine, "live");

    let checkpoint = Json::parse(&responses[3])
        .unwrap()
        .require("checkpoint")
        .unwrap()
        .render();
    let restore = format!(r#"{{"cmd":"restore","session":"restored","checkpoint":{checkpoint}}}"#);
    let responses = run_script(&engine, &format!("{restore}\n"));
    assert!(
        responses[0].contains(r#""restored":true"#),
        "{}",
        responses[0]
    );
    assert_views(&engine, "restored");
}
