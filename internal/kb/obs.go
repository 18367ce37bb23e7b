package kb

import (
	"context"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/history"
	"kdb/internal/obs/sysrel"
)

// WithTracer attaches a span tracer: every query records a span tree
// (parse, analyze, eval, describe, storage phases) that the tracer
// retains and hands to its OnFinish callback. A nil tracer keeps the
// query path allocation-free.
func WithTracer(t *obs.Tracer) Option {
	return func(k *KB) { k.tracer.Store(t) }
}

// WithMetrics registers the knowledge base's instruments on reg — query
// latency histograms by statement kind, derived-fact and lookup tallies,
// governor stop reasons — and wires the storage observer so WAL append,
// fsync, and snapshot timings land on the same registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(k *KB) {
		if reg == nil {
			return
		}
		k.qmetrics.Store(obs.NewQueryMetrics(reg))
		k.store.SetObserver(obs.NewStorageMetrics(reg))
		k.sys.SetRegistry(reg)
	}
}

// WithMetricsHistory attaches a metrics-history ring buffer: its
// retained samples back the sys_metric_history virtual relation. The
// caller owns the buffer's sampling lifecycle (Start/Stop); the KB
// only reads snapshots.
func WithMetricsHistory(b *history.Buffer) Option {
	return func(k *KB) { k.sys.SetHistory(b) }
}

// WithQueryStats turns on per-statement execution statistics: every
// finished Exec-path query folds its latency into a bounded
// per-statement aggregate, queryable as the sys_query_stats virtual
// relation. Off by default — the aggregate costs one mutex-guarded
// map update per query.
func WithQueryStats() Option {
	return func(k *KB) {
		qs := sysrel.NewQueryStats(0)
		k.qstats.Store(qs)
		k.sys.SetQueryStats(qs)
	}
}

// WithoutSystemRelations disables the sys_* virtual relations: the
// provider is dropped and sys_ predicates behave like any other
// unknown predicate in queries (the namespace itself stays reserved —
// definitions and asserts are still rejected). Mainly for measuring
// the provider's overhead; there is no cost to leaving it on for
// programs that never mention sys_*.
func WithoutSystemRelations() Option {
	// Construction-time: the KB is not yet published to any other
	// goroutine when options run.
	return func(k *KB) { k.sys = nil } //kdb:nolint lockcheck
}

// WithQueryLog attaches a structured query log: every finished query
// (or only those at or above the log's slow threshold) appends its
// record as one JSONL line — statement, kind, latency, stop reason, the
// query's own evaluation counters, and the trace id of the query's root
// span when tracing is also on.
func WithQueryLog(l *obs.QueryLog) Option {
	return func(k *KB) { k.qlog.Store(l) }
}

// WithActivity attaches an in-flight query registry: every Exec-path
// query registers itself (statement, kind, tenant/client, trace id,
// stats-so-far) for the duration of its evaluation, and canceling its
// registry entry cancels the query's context — kdb's pg_stat_activity.
// The registry may be shared across KBs (the server registers every
// tenant's queries in one).
func WithActivity(reg *obs.ActivityRegistry) Option {
	return func(k *KB) {
		k.activity.Store(reg)
		k.sys.SetActivity(reg)
	}
}

// SetActivityRegistry attaches (or, given nil, detaches) the in-flight
// query registry at runtime; it takes effect on the next query.
func (k *KB) SetActivityRegistry(reg *obs.ActivityRegistry) {
	k.activity.Store(reg)
	k.sys.SetActivity(reg)
}

// ActivityRegistry returns the attached in-flight query registry, or
// nil.
func (k *KB) ActivityRegistry() *obs.ActivityRegistry { return k.activity.Load() }

// SetTracer attaches (or, given nil, detaches) the span tracer at
// runtime; it takes effect on the next query.
func (k *KB) SetTracer(t *obs.Tracer) { k.tracer.Store(t) }

// Tracer returns the attached span tracer, or nil.
func (k *KB) Tracer() *obs.Tracer { return k.tracer.Load() }

// SetQueryLog attaches (or, given nil, detaches) the structured query
// log at runtime; it takes effect on the next query.
func (k *KB) SetQueryLog(l *obs.QueryLog) { k.qlog.Store(l) }

// beginActivity registers the query in the attached activity registry
// under a cancelable child context and returns it with a done func;
// done deregisters. Returns ctx, nil when no registry is attached.
func (k *KB) beginActivity(ctx context.Context, kind, stmt string) (context.Context, func()) {
	reg := k.activity.Load()
	if reg == nil {
		return ctx, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	ci, _ := obs.ClientFromContext(ctx)
	a := reg.Begin(stmt, kind, ci.Tenant, ci.Client, obs.SpanFromContext(ctx).TraceID(), cancel)
	cctx = obs.ContextWithActivity(cctx, a)
	return cctx, func() {
		reg.End(a)
		cancel()
	}
}

// beginQuery opens the per-query observability scope: a root "query"
// span placed in the context for the engines to hang children on, and a
// latency clock. When the context already carries a span (the server's
// "serve" phase), the query span is created as its child and the parent
// owns trace retention; otherwise a fresh root is started on the KB's
// tracer and finished there. The returned finish func ends the scope;
// call it exactly once with the query's record and error. It completes
// the record (latency, stop, error, trace id, client), and every sink
// reads that one value. When no tracer, metrics, query log, or query
// statistics is configured, ctx comes back untouched and finish is nil,
// keeping the disabled path free of allocations.
func (k *KB) beginQuery(ctx context.Context) (context.Context, func(rec obs.QueryLogRecord, err error)) {
	tr := k.tracer.Load()
	qm := k.qmetrics.Load()
	ql := k.qlog.Load()
	qs := k.qstats.Load()
	if tr == nil && qm == nil && ql == nil && qs == nil {
		return ctx, nil
	}
	var root *obs.Span
	owned := true
	if parent := obs.SpanFromContext(ctx); parent != nil {
		root = parent.Child("query")
		owned = false
	} else {
		root = tr.Start("query")
	}
	ctx = obs.ContextWithSpan(ctx, root)
	start := time.Now()
	ci, _ := obs.ClientFromContext(ctx)
	return ctx, func(rec obs.QueryLogRecord, err error) {
		d := time.Since(start)
		rec.DurUS = d.Microseconds()
		rec.Stop = governor.StopReason(err)
		if rec.Stop == "error" {
			rec.Stop = "" // plain failures are not governed stops
		}
		if err != nil {
			rec.Error = err.Error()
		}
		// The trace id joins the record to the query's trace, and the
		// latency sample's exemplar to both.
		rec.TraceID = root.TraceID()
		rec.Tenant, rec.Client = ci.Tenant, ci.Client
		qs.Observe(rec.Statement, d)
		root.SetStr("kind", rec.Kind)
		if rec.Stop != "" {
			root.SetStr("stop", rec.Stop)
		}
		if rec.Error != "" {
			root.SetBool("error", true)
		}
		qm.Observe(rec)
		ql.Observe(rec) // best-effort: a full disk must not fail the query
		if owned {
			tr.Finish(root)
		} else {
			root.End()
		}
	}
}
