//! The shared cloud environment: services + meters + timing sources.

use crate::direct::DirectNet;
use crate::fault::{FaultPlan, FaultPlane};
use crate::latency::{Jitter, LatencyModel};
use crate::meter::{MeterSnapshot, ServiceMeter};
use crate::object::ObjectStore;
use crate::pubsub::PubSub;
use crate::queue::SqsQueue;
use crate::stream::WeightNet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a simulated cloud region.
#[derive(Debug, Clone, Copy)]
pub struct CloudConfig {
    /// Service latency/bandwidth model.
    pub latency: LatencyModel,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Number of parallel pub-sub topics (the paper uses 10).
    pub n_topics: usize,
    /// Number of object-storage buckets (the paper uses 10).
    pub n_buckets: usize,
    /// Optional seeded fault-injection plan (chaos testing). `None`
    /// draws nothing and adds no overhead.
    pub faults: Option<FaultPlan>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            latency: LatencyModel::default(),
            seed: 0,
            n_topics: 10,
            n_buckets: 10,
            faults: None,
        }
    }
}

impl CloudConfig {
    /// Jitter-free configuration for deterministic tests and validation.
    pub fn deterministic(seed: u64) -> CloudConfig {
        CloudConfig {
            latency: LatencyModel::deterministic(),
            seed,
            ..CloudConfig::default()
        }
    }

    /// Arms the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> CloudConfig {
        self.faults = Some(plan);
        self
    }
}

/// One simulated cloud region holding all communication services. Shared
/// (via `Arc`) by every FaaS worker thread in a run.
pub struct CloudEnv {
    config: CloudConfig,
    meter: Arc<ServiceMeter>,
    jitter: Arc<Jitter>,
    faults: Arc<FaultPlane>,
    pubsub: PubSub,
    store: ObjectStore,
    direct: DirectNet,
    weights: WeightNet,
    queues: Mutex<HashMap<String, Arc<SqsQueue>>>,
}

impl CloudEnv {
    /// Brings up a region: pre-creates topics and buckets (named
    /// `bucket-{i}`), mirroring the paper's pre-created resources.
    pub fn new(config: CloudConfig) -> Arc<CloudEnv> {
        let meter = Arc::new(ServiceMeter::new());
        let jitter = Arc::new(Jitter::new(config.seed, config.latency.jitter));
        let faults = Arc::new(FaultPlane::new(config.faults));
        let pubsub = PubSub::new(
            config.n_topics,
            meter.clone(),
            config.latency,
            jitter.clone(),
            faults.clone(),
        );
        let store = ObjectStore::new(
            meter.clone(),
            config.latency,
            jitter.clone(),
            faults.clone(),
        );
        for i in 0..config.n_buckets {
            store.create_bucket(&bucket_name(i));
        }
        let direct = DirectNet::new(
            meter.clone(),
            config.latency,
            jitter.clone(),
            faults.clone(),
        );
        let weights = WeightNet::new(
            meter.clone(),
            config.latency,
            jitter.clone(),
            faults.clone(),
        );
        Arc::new(CloudEnv {
            config,
            meter,
            jitter,
            faults,
            pubsub,
            store,
            direct,
            weights,
            queues: Mutex::new(HashMap::new()),
        })
    }

    /// The region's configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// The latency model used by all services.
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// The shared billing meter.
    pub fn meter(&self) -> &ServiceMeter {
        &self.meter
    }

    /// Convenience: snapshot of the billing meter.
    pub fn snapshot(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }

    /// Convenience: the billing events attributed to one request flow.
    pub fn flow_snapshot(&self, flow: u64) -> MeterSnapshot {
        self.meter.flow_snapshot(flow)
    }

    /// Convenience: removes a flow's billing bucket, returning its final
    /// window (request teardown).
    pub fn release_flow(&self, flow: u64) -> MeterSnapshot {
        self.meter.release_flow(flow)
    }

    /// The deterministic jitter stream (shared by FaaS timing too).
    pub fn jitter(&self) -> &Arc<Jitter> {
        &self.jitter
    }

    /// The region's fault-injection plane (inert unless a plan or a
    /// targeted schedule is armed).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// The pub-sub service.
    pub fn pubsub(&self) -> &PubSub {
        &self.pubsub
    }

    /// The object store.
    pub fn object_store(&self) -> &ObjectStore {
        &self.store
    }

    /// The direct-exchange fabric (punched connections).
    pub fn direct(&self) -> &DirectNet {
        &self.direct
    }

    /// The weight-multicast fabric (cold-launch weight streaming).
    pub fn weight_net(&self) -> &WeightNet {
        &self.weights
    }

    /// Creates (or returns) the queue with the given name. Queues are
    /// pre-created per worker before inference, at no idle cost.
    pub fn queue(&self, name: &str) -> Arc<SqsQueue> {
        self.queues
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(SqsQueue::new(
                    name.to_string(),
                    self.meter.clone(),
                    self.config.latency,
                    self.jitter.clone(),
                    self.faults.clone(),
                ))
            })
            .clone()
    }

    /// Removes a queue from the region (request teardown). Live `Arc`
    /// handles held by straggler workers stay valid; the queue simply stops
    /// being discoverable. Returns the removed queue, if any.
    pub fn remove_queue(&self, name: &str) -> Option<Arc<SqsQueue>> {
        self.queues.lock().remove(name)
    }

    /// Number of live queues in the region (diagnostics/tests).
    pub fn queue_count(&self) -> usize {
        self.queues.lock().len()
    }

    /// Leak audit: everything per-request still alive in the region, as
    /// human-readable descriptions. Empty means clean.
    ///
    /// Covered: live queues, filter-policy subscriptions on every topic,
    /// objects left in the data buckets (`bucket-{i}`), and per-flow
    /// billing buckets still tracked by the meter. Buckets outside the
    /// `bucket-{i}` set (e.g. the artifact bucket holding staged model
    /// weights) are deliberately long-lived and not audited.
    ///
    /// The audit requires quiescence: it must not run while requests are
    /// in flight, or their legitimately-live resources read as leaks. The
    /// serving path therefore never calls it; `tests/residue.rs` does,
    /// after teardown.
    pub fn residue_report(&self) -> Vec<String> {
        let mut residue = Vec::new();
        let queues = self.queue_count();
        if queues > 0 {
            residue.push(format!("{queues} live queue(s)"));
        }
        for t in 0..self.pubsub.n_topics() {
            let subs = self.pubsub.subscription_count(t);
            if subs > 0 {
                residue.push(format!(
                    "{subs} subscription(s) on {}",
                    crate::pubsub::topic_name(t)
                ));
            }
        }
        for i in 0..self.config.n_buckets {
            let name = bucket_name(i);
            let objects = self.store.object_count(&name);
            if objects > 0 {
                residue.push(format!("{objects} object(s) in {name}"));
            }
        }
        let conns = self.direct.connection_count();
        if conns > 0 {
            residue.push(format!("{conns} punched direct connection(s)"));
        }
        let frames = self.direct.undrained_frames();
        if frames > 0 {
            residue.push(format!("{frames} undrained direct frame(s)"));
        }
        let weight_frames = self.weights.undrained_frames();
        if weight_frames > 0 {
            residue.push(format!("{weight_frames} undrained weight frame(s)"));
        }
        let flows = self.meter.tracked_flows();
        if flows > 0 {
            residue.push(format!("{flows} tracked billing flow(s)"));
        }
        residue
    }

    /// Debug-mode leak audit: asserts [`CloudEnv::residue_report`] is empty,
    /// listing every leak otherwise. See there for coverage and the
    /// quiescence requirement.
    pub fn assert_no_residue(&self) {
        let residue = self.residue_report();
        assert!(
            residue.is_empty(),
            "cloud residue after teardown: {}",
            residue.join("; ")
        );
    }

    /// Purges all queues and intermediate objects (between repetitions).
    ///
    /// Test/benchmark utility only: it wipes state globally, so it must
    /// never run while any request is in flight. The serving path isolates
    /// requests by flow id and tears down per-request resources instead.
    pub fn reset_channels(&self) {
        for q in self.queues.lock().values() {
            q.purge();
        }
        for i in 0..self.config.n_buckets {
            self.store.delete_prefix(&bucket_name(i), "");
        }
        self.direct.reset();
        self.weights.reset();
    }
}

/// Canonical bucket naming: `bucket-{i}` as in the paper's examples.
pub fn bucket_name(i: usize) -> String {
    format!("bucket-{i}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VClock;

    #[test]
    fn env_precreates_buckets_and_topics() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        assert_eq!(env.pubsub().n_topics(), 10);
        for i in 0..10 {
            assert!(
                env.object_store().bucket_exists(&bucket_name(i)),
                "bucket {i}"
            );
        }
    }

    #[test]
    fn queue_is_created_once_and_shared() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let a = env.queue("worker-3");
        let b = env.queue("worker-3");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name(), "worker-3");
    }

    #[test]
    fn reset_channels_clears_state() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let q = env.queue("w");
        q.enqueue(
            crate::time::VirtualTime::ZERO,
            crate::message::Message {
                attributes: crate::message::MessageAttributes {
                    flow: 0,
                    source: 0,
                    target: 0,
                    layer: 0,
                    total_chunks: 1,
                    batch: 0,
                },
                body: vec![1],
            },
        );
        let mut clock = VClock::default();
        env.object_store()
            .put(&bucket_name(0), "x", &b"y"[..], &mut clock)
            .expect("put");
        env.reset_channels();
        assert_eq!(q.visible_len(), 0);
        assert_eq!(env.object_store().object_count(&bucket_name(0)), 0);
    }

    #[test]
    fn meter_is_shared_across_services() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let mut clock = VClock::default();
        env.object_store()
            .put(&bucket_name(1), "k", &b"v"[..], &mut clock)
            .expect("put");
        let q = env.queue("w0");
        q.empty_poll(&mut clock, 0.1);
        let snap = env.snapshot();
        assert_eq!(snap.s3_put_requests, 1);
        assert_eq!(snap.sqs_api_calls, 1);
        assert_eq!(snap.sqs_empty_polls, 1);
    }
}
