fn good_retry_over_put(opts: &Opts, lane: &mut VClock, store: &ObjectStore, key: &str) {
    // Re-PUT of the same key is idempotent: a retried attempt overwrites
    // its own partial effect.
    let (res, retries) = opts.retry.run(lane, |lane| {
        store.put(lane, "b", key, vec![1, 2, 3])
    });
    let _ = (res, retries);
}

fn good_take_and_settle_outside_policy(lane: &mut VClock, env: &CloudEnv, q: u32) {
    // Consuming takes and billing settles are fine outside a retry closure.
    let msgs = env.queue(q).take_visible(10);
    let taken: Vec<(VirtualTime, usize)> = msgs.iter().map(|m| (m.available_at, m.message.len())).collect();
    env.queue(q).settle_receives(lane, 1.0, &taken);
}

fn good_unrelated_run(runner: &Runner, lane: &mut VClock) {
    // `.run(` on a non-retry receiver is not the policy's run.
    let out = runner.run(lane, |lane| lane.tick());
    let _ = out;
}
