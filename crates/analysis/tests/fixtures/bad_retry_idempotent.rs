fn bad_retry_over_take(opts: &Opts, lane: &mut VClock, env: &CloudEnv, q: u32) {
    let (res, retries) = opts.retry.run(lane, |_| {
        env.queue(q).take_visible(10)
    });
    let _ = (res, retries);
}

fn bad_retry_over_settle(lane: &mut VClock, env: &CloudEnv, q: u32, taken: Vec<(VirtualTime, usize)>) {
    let (res, _) = RetryPolicy::default().run(lane, |lane| {
        env.queue(q).settle_receives(lane, 1.0, &taken)
    });
    let _ = res;
}
