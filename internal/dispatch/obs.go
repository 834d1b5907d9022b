package dispatch

import (
	"fedwcm/internal/obs"
)

// coordMetrics is the coordinator's handle set, resolved once at
// construction. Queue depth / worker count / leased count are GaugeFuncs
// over Stats() — the same snapshot the sweep status API reports — so the
// two surfaces cannot disagree.
type coordMetrics struct {
	leaseWait *obs.Histogram  // enqueue → lease grant
	leaseHold *obs.Histogram  // lease grant → upload or expiry
	beatGap   *obs.Histogram  // time between heartbeats on a held lease
	expiries  *obs.Counter    // leases expired by the reaper
	requeues  *obs.Counter    // jobs requeued (expiry or clean handover)
	dup       *obs.Counter    // idempotent duplicate uploads
	divergent *obs.Counter    // duplicate uploads whose bytes differ from the stored artifact
	uploads   *obs.CounterVec // result uploads by terminal status
	slotsBusy *obs.GaugeVec   // in-flight leases per worker
	wire      wireMetrics     // binary-transport ingest accounting
	// leasesOnAck counts leases granted on a result ack instead of a poll; the
	// worker routes sit outside obs.HTTPMetrics, so no other series can tell
	// the two apart.
	leasesOnAck *obs.Counter
	// Durability series (all zero on an in-memory coordinator).
	reattached     *obs.Counter // leases adopted by re-attaching workers
	walRecords     *obs.Counter // submit records journaled to the WAL
	walErrors      *obs.Counter // failed WAL appends (the log is poisoned)
	walCheckpoints *obs.Counter // WAL compactions (startup + every WALCompactEvery completes)
}

// wireMetrics instruments the binary wire codec (internal/wire) wherever a
// component encodes or decodes it. The same family names are registered by
// the coordinator (rx) and the worker (tx), so a shared registry shows one
// fedwcm_wire_bytes_total across the process.
type wireMetrics struct {
	bytes  *obs.CounterVec // payload bytes by message kind and direction
	encode *obs.Histogram  // encode latency, seconds
	decode *obs.Histogram  // decode latency, seconds
}

func newWireMetrics(reg *obs.Registry) wireMetrics {
	if reg == nil {
		return wireMetrics{}
	}
	return wireMetrics{
		bytes:  reg.CounterVec("fedwcm_wire_bytes_total", "Wire-codec payload bytes moved, by message kind and direction (tx/rx).", "kind", "dir"),
		encode: reg.Histogram("fedwcm_wire_encode_seconds", "Latency of wire-codec encodes.", nil),
		decode: reg.Histogram("fedwcm_wire_decode_seconds", "Latency of wire-codec decodes.", nil),
	}
}

// observeEncode counts one encoded payload (nil-safe on an unmetered
// component).
func (wm wireMetrics) observeEncode(kind string, n int, seconds float64) {
	if wm.bytes == nil {
		return
	}
	wm.bytes.With(kind, "tx").Add(uint64(n))
	wm.encode.Observe(seconds)
}

// observeDecode counts one decoded payload.
func (wm wireMetrics) observeDecode(kind string, n int, seconds float64) {
	if wm.bytes == nil {
		return
	}
	wm.bytes.With(kind, "rx").Add(uint64(n))
	wm.decode.Observe(seconds)
}

func newCoordMetrics(reg *obs.Registry, stats func() CoordinatorStats) coordMetrics {
	if reg == nil {
		return coordMetrics{}
	}
	reg.GaugeFunc("fedwcm_dispatch_queue_depth", "Jobs waiting for a lease.", func() float64 {
		return float64(stats().Pending)
	})
	reg.GaugeFunc("fedwcm_dispatch_workers", "Workers currently registered.", func() float64 {
		return float64(stats().Workers)
	})
	reg.GaugeFunc("fedwcm_dispatch_leased", "Jobs currently leased to workers.", func() float64 {
		return float64(stats().Leased)
	})
	reg.GaugeFunc("fedwcm_dispatch_recovered_jobs", "Jobs replayed from the WAL at the last coordinator startup.", func() float64 {
		return float64(stats().Recovered)
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
		uploads:   reg.CounterVec("fedwcm_dispatch_uploads_total", "Result uploads ingested, by terminal status.", "status"),
		slotsBusy: reg.GaugeVec("fedwcm_dispatch_worker_slots_busy", "In-flight leases per registered worker.", "worker"),
		wire:      newWireMetrics(reg),
		leasesOnAck: reg.Counter("fedwcm_dispatch_leases_on_ack_total",
			"Leases granted on a result-upload ack (complete-and-lease-next) instead of a lease poll."),
		reattached: reg.Counter("fedwcm_dispatch_reattached_total",
			"Leases adopted by workers that re-attached to an in-flight job (coordinator restart or lease expiry) without a recompute."),
		walRecords: reg.Counter("fedwcm_dispatch_wal_records_total",
			"Accepted job submissions journaled to the write-ahead log (one submit record each)."),
		walErrors: reg.Counter("fedwcm_dispatch_wal_append_errors_total",
			"WAL appends that failed; the log is poisoned and durable submits fail closed."),
		walCheckpoints: reg.Counter("fedwcm_dispatch_wal_checkpoints_total",
			"WAL compactions: the log rewritten down to the live job set."),
	}
}

// workerMetrics is the pull-worker's handle set (exposed on the worker
// process's own /metrics listener); Local's worker leaves it zero.
type workerMetrics struct {
	leases     *obs.Counter
	heartbeats *obs.Counter
	leaseLost  *obs.Counter
	uploads    *obs.CounterVec // by coordinator ack status
}

func newWorkerMetrics(reg *obs.Registry) workerMetrics {
	if reg == nil {
		return workerMetrics{}
	}
	return workerMetrics{
		leases:     reg.Counter("fedwcm_worker_leases_total", "Jobs leased from the coordinator."),
		heartbeats: reg.Counter("fedwcm_worker_heartbeats_total", "Heartbeats delivered to the coordinator."),
		leaseLost:  reg.Counter("fedwcm_worker_lease_lost_total", "Leases lost mid-run (job abandoned)."),
		uploads:    reg.CounterVec("fedwcm_worker_uploads_total", "Result uploads, by coordinator acknowledgement.", "status"),
	}
}
