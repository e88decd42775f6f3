package store

import (
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// observer bundles the store's metrics and tracer so the hot paths touch
// pre-resolved metric pointers instead of registry lookups.
type observer struct {
	appends             *metrics.Counter
	appendErrors        *metrics.Counter
	walBytes            *metrics.Counter
	syncs               *metrics.Counter
	syncErrors          *metrics.Counter
	checkpoints         *metrics.Counter
	checkpointErrors    *metrics.Counter
	checkpointFallbacks *metrics.Counter
	recoveryRecords     *metrics.Counter
	tornTails           *metrics.Counter
	prunedFiles         *metrics.Counter
	tailRecords         *metrics.Gauge
	checkpointSeconds   *metrics.Histogram
	recoverySeconds     *metrics.Histogram
	tracer              *trace.Tracer
}

func newObserver(reg *metrics.Registry, tracer *trace.Tracer) *observer {
	if reg == nil {
		reg = metrics.Default()
	}
	return &observer{
		appends: reg.Counter("ph_store_wal_appends_total",
			"WAL records appended."),
		appendErrors: reg.Counter("ph_store_wal_append_errors_total",
			"WAL appends that failed (segment rotated on next append)."),
		walBytes: reg.Counter("ph_store_wal_bytes_total",
			"Framed bytes handed to the WAL, header included."),
		syncs: reg.Counter("ph_store_wal_syncs_total",
			"Successful WAL fsync group commits."),
		syncErrors: reg.Counter("ph_store_wal_sync_errors_total",
			"WAL fsyncs that failed (segment rotated on next append)."),
		checkpoints: reg.Counter("ph_store_checkpoints_total",
			"Checkpoints published."),
		checkpointErrors: reg.Counter("ph_store_checkpoint_errors_total",
			"Checkpoint writes that failed."),
		checkpointFallbacks: reg.Counter("ph_store_checkpoint_fallbacks_total",
			"Checkpoints skipped at recovery because they failed verification."),
		recoveryRecords: reg.Counter("ph_store_recovery_records_total",
			"WAL records replayed past the checkpoint at recovery."),
		tornTails: reg.Counter("ph_store_torn_tails_total",
			"WAL segments that ended in a torn write."),
		prunedFiles: reg.Counter("ph_store_pruned_files_total",
			"Checkpoint and WAL segment files retired by compaction."),
		tailRecords: reg.Gauge("ph_store_wal_tail_records",
			"WAL records past the newest checkpoint: what recovery would replay now."),
		checkpointSeconds: reg.Histogram("ph_store_checkpoint_seconds",
			"Checkpoint publish latency.", nil),
		recoverySeconds: reg.Histogram("ph_store_recovery_seconds",
			"Recovery (checkpoint load + WAL replay) latency.", nil),
		tracer: tracer,
	}
}
