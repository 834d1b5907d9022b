package dispatch

import (
	"fedwcm/internal/obs"
)

// coordMetrics is the coordinator's handle set, resolved once at
// construction. Queue depth and leased count are GaugeFuncs over Stats() —
// the same snapshot the sweep status API reports — so the two surfaces
// cannot disagree.
type coordMetrics struct {
	leaseWait *obs.Histogram  // enqueue → lease grant
	leaseHold *obs.Histogram  // lease grant → upload or expiry
	beatGap   *obs.Histogram  // time between heartbeats on a held lease
	expiries  *obs.Counter    // leases expired by the reaper
	requeues  *obs.Counter    // jobs requeued (expiry or clean handover)
	dup       *obs.Counter    // idempotent duplicate uploads
	divergent *obs.Counter    // duplicate uploads whose bytes differ from the stored artifact
	uploads   *obs.CounterVec // result uploads by terminal status
	// leasesOnAck counts leases granted on a result ack instead of a poll; the
	// worker routes sit outside obs.HTTPMetrics, so no other series can tell
	// the two apart.
	leasesOnAck *obs.Counter
	// Durability series (all zero on an in-memory coordinator).
	walRecords     *obs.Counter // submit records journaled to the WAL
	walCheckpoints *obs.Counter // WAL compactions (startup + every walCompactEvery completes)
}

func newCoordMetrics(reg *obs.Registry, stats func() CoordinatorStats) coordMetrics {
	if reg == nil {
		return coordMetrics{}
	}
	reg.GaugeFunc("fedwcm_dispatch_queue_depth", "Jobs waiting for a lease.", func() float64 {
		return float64(stats().Pending)
	})
	reg.GaugeFunc("fedwcm_dispatch_leased", "Jobs currently leased to workers.", func() float64 {
		return float64(stats().Leased)
	})
	return coordMetrics{
		leaseWait: reg.Histogram("fedwcm_dispatch_lease_wait_seconds", "Time a job waited in the queue before its lease was granted.", nil),
		leaseHold: reg.Histogram("fedwcm_dispatch_lease_hold_seconds", "Time a lease was held, from grant to upload or expiry.", nil),
		beatGap:   reg.Histogram("fedwcm_dispatch_heartbeat_gap_seconds", "Observed gap between heartbeats on a held lease.", nil),
		expiries:  reg.Counter("fedwcm_dispatch_lease_expiries_total", "Leases expired by the reaper (worker stopped heartbeating)."),
		requeues:  reg.Counter("fedwcm_dispatch_requeues_total", "Jobs requeued after lease expiry or worker deregistration."),
		dup:       reg.Counter("fedwcm_dispatch_duplicate_uploads_total", "Result uploads acknowledged idempotently without a store write."),
		divergent: reg.Counter("fedwcm_dispatch_divergent_uploads_total",
			"Duplicate result uploads whose history bytes differ from the stored artifact (the first upload is kept)."),
		uploads: reg.CounterVec("fedwcm_dispatch_uploads_total", "Result uploads ingested, by terminal status.", "status"),
		leasesOnAck: reg.Counter("fedwcm_dispatch_leases_on_ack_total",
			"Leases granted on a result-upload ack (complete-and-lease-next) instead of a lease poll."),
		walRecords: reg.Counter("fedwcm_dispatch_wal_records_total",
			"Accepted job submissions journaled to the write-ahead log (one submit record each)."),
		walCheckpoints: reg.Counter("fedwcm_dispatch_wal_checkpoints_total",
			"WAL compactions: the log rewritten down to the live job set."),
	}
}

// workerMetrics is the pull-worker's handle set (exposed on the worker
// process's own /metrics listener); Local's worker leaves it zero.
type workerMetrics struct {
	leases  *obs.Counter
	uploads *obs.CounterVec // by coordinator ack status
}

func newWorkerMetrics(reg *obs.Registry) workerMetrics {
	if reg == nil {
		return workerMetrics{}
	}
	return workerMetrics{
		leases:  reg.Counter("fedwcm_worker_leases_total", "Jobs leased from the coordinator."),
		uploads: reg.CounterVec("fedwcm_worker_uploads_total", "Result uploads, by coordinator acknowledgement.", "status"),
	}
}
