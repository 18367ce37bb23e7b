// Package kdb is a knowledge-rich deductive database with a twin query
// interface, reproducing "Querying Database Knowledge" (Motro & Yuan,
// SIGMOD 1990):
//
//   - retrieve p where ψ — data queries: the paper's §3.1 statement,
//     evaluated as Datalog, tabled top-down when the query binds an
//     argument of a rule-defined predicate and semi-naive bottom-up
//     otherwise;
//   - describe p where ψ — knowledge queries: the paper's §3.2
//     statement, answered with rules that are logically derived from the
//     intensional database under the hypothesis ψ, via Algorithm 1
//     (non-recursive subjects) and Algorithm 2 (recursive subjects,
//     through the §5.2 rule transformation with tags and typed
//     substitutions);
//   - the §6 extensions: `where necessary`, negative hypotheses
//     (`where not h` — is h necessary?), the subjectless possibility
//     check, the wildcard subject `describe *`, and `compare` between
//     two concepts.
//
// # Quick start
//
//	k := kdb.New()
//	err := k.LoadString(`
//	    student(ann, math, 3.9).
//	    honor(X) :- student(X, M, G), G > 3.7.
//	`)
//	ctx := context.Background()
//	res, err := k.ExecStringContext(ctx, `retrieve honor(X).`) // → honor(ann)
//	res, err = k.ExecStringContext(ctx, `describe honor(X).`)  // → honor(X) <- student(X, M, G) and G > 3.7
//
// Facts can be made durable with Open (snapshot + write-ahead log with
// crash recovery). The surface language is documented in the repository
// README; variables start with an upper-case letter, constants are
// lower-case symbols, numbers, or quoted strings, and `%` starts a
// comment.
package kdb

import (
	"context"
	"io"
	"net/http"
	"time"

	"kdb/internal/analysis"
	"kdb/internal/catalog"
	"kdb/internal/core"
	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/kb"
	"kdb/internal/obs"
	"kdb/internal/obs/history"
	"kdb/internal/obs/profile"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/server"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Core database types.
type (
	// KB is a knowledge-rich database: stored facts, rules, and the twin
	// query machinery. Safe for concurrent use.
	KB = kb.KB
	// ExecResult is the displayable outcome of executing any query form.
	ExecResult = kb.ExecResult
	// DescribeOptions tunes the knowledge-query engine.
	DescribeOptions = core.Options
	// Option configures a KB at construction time (New / Open).
	Option = kb.Option
	// EvalStats is the observability record of one retrieve evaluation:
	// per-SCC fixpoint iterations, facts derived, delta sizes, lookup and
	// probe counts, and wall times. A retrieve answer carries its own
	// (ExecResult.Retrieve.Stats); see also KB.LastStats.
	EvalStats = eval.EvalStats
	// ComponentStats records the evaluation of one SCC of the rule graph.
	ComponentStats = eval.ComponentStats
)

// Query-governor types: per-query resource control for every evaluation
// path (see WithQueryLimits and the context every query enters the KB
// with — KB.ExecContext and KB.ExecStringContext).
type (
	// QueryLimits are the per-query resource bounds. The zero value of
	// every field means unlimited.
	QueryLimits = governor.Limits
	// LimitKind identifies which limit a LimitError reports.
	LimitKind = governor.LimitKind
	// LimitError reports a breached resource limit (errors.As-able).
	LimitError = governor.LimitError
	// PanicError is an internal panic contained at an engine boundary
	// and surfaced as an error, with the stack at the panic site.
	PanicError = governor.PanicError
	// StopError wraps the underlying breach of a governed retrieve stop
	// and carries the statistics snapshot at stop time (its EvalStats
	// has StopReason set).
	StopError = eval.StopError
)

// Static-analysis types: the diagnostics engine behind KB.Diagnostics,
// load-time gating, and the `kdb check` command.
type (
	// Diagnostic is one source-anchored finding of one analyzer.
	Diagnostic = analysis.Diagnostic
	// Severity grades a diagnostic (info, warning, error).
	Severity = analysis.Severity
	// Report aggregates the diagnostics and the program profile of one
	// analysis run.
	Report = analysis.Report
	// AnalysisError is the error a load returns when error-severity
	// diagnostics reject the program (errors.As-able; carries the
	// structured diagnostics).
	AnalysisError = analysis.Error
	// Profile summarizes a program's shape: predicate/rule counts and
	// rule counts per recursion classification.
	Profile = analysis.Profile
)

// Diagnostic severities.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// Analyze runs the full static-analysis suite over a parsed program and
// returns the report (diagnostics plus program profile).
func Analyze(prog *Program) *Report { return analysis.Run(analysis.FromProgram(prog)) }

// ErrCanceled matches (via errors.Is) every error returned for a
// canceled or expired query context. The concrete error also wraps the
// context cause, so errors.Is(err, context.DeadlineExceeded) works.
var ErrCanceled = governor.ErrCanceled

// ErrClosed matches (via errors.Is) every error a KB returns once it
// has been closed: callers holding a stale handle get a structured
// error instead of a raw I/O failure from the store underneath.
var ErrClosed = kb.ErrClosed

// ErrDurability matches (via errors.Is) every error meaning "the
// in-memory state changed but the change may not have reached stable
// storage": a WAL append or fsync failure, a poisoned log, a failed
// checkpoint. Callers deciding between retrying a request and walling
// off a failing store key on it; KB.DurabilityErr reports the sticky
// form, and a successful CheckpointContext clears it.
var ErrDurability = storage.ErrDurability

// ContextWithQueryLimits attaches per-request query limits to a
// context: they govern every evaluation under it, clamped against the
// KB's configured limits (a request may tighten but never loosen the
// ceiling — see ClampQueryLimits).
func ContextWithQueryLimits(ctx context.Context, l QueryLimits) context.Context {
	return kb.ContextWithLimits(ctx, l)
}

// QueryLimitsFromContext returns the limits attached by
// ContextWithQueryLimits.
func QueryLimitsFromContext(ctx context.Context) (QueryLimits, bool) {
	return kb.LimitsFromContext(ctx)
}

// ClampQueryLimits merges requested limits against a ceiling: for each
// field the result never exceeds a nonzero ceiling bound, and a zero
// (unlimited) request is replaced by the ceiling.
func ClampQueryLimits(req, ceiling QueryLimits) QueryLimits {
	return governor.Clamp(req, ceiling)
}

// Limit kinds reported by LimitError.
const (
	LimitFacts         = governor.LimitFacts
	LimitIterations    = governor.LimitIterations
	LimitTableEntries  = governor.LimitTableEntries
	LimitDescribeNodes = governor.LimitDescribeNodes
	LimitProvenance    = governor.LimitProvenance
)

// Term-language types.
type (
	// Term is a constant or variable.
	Term = term.Term
	// Atom is a predicate applied to terms.
	Atom = term.Atom
	// Formula is a conjunction of atoms.
	Formula = term.Formula
	// Rule is a Horn clause head ← body.
	Rule = term.Rule
	// Subst is a substitution over variables.
	Subst = term.Subst
)

// Query and answer types.
type (
	// Query is any parsed query statement.
	Query = parser.Query
	// RetrieveQuery is a parsed data query.
	RetrieveQuery = parser.Retrieve
	// DescribeQuery is a parsed knowledge query.
	DescribeQuery = parser.Describe
	// CompareQuery is a parsed concept comparison.
	CompareQuery = parser.Compare
	// ExplainQuery is a parsed why-provenance query.
	ExplainQuery = parser.Explain
	// Result is the extensional answer to a retrieve.
	Result = eval.Result
	// Answers is the set of rules answering a describe.
	Answers = core.Answers
	// Answer is one rule of a knowledge answer.
	Answer = core.Answer
	// Necessity answers `describe … where not h`.
	Necessity = core.Necessity
	// Possibility answers a subjectless describe.
	Possibility = core.Possibility
	// WildcardEntry is one subject of a `describe *` answer.
	WildcardEntry = core.WildcardEntry
	// ConceptComparison answers a compare statement.
	ConceptComparison = core.ConceptComparison
	// Relation classifies how two concepts relate.
	Relation = core.Relation
	// Program is a parsed knowledge-base source.
	Program = parser.Program
	// Pred describes a predicate in the catalog.
	Pred = catalog.Pred
)

// Concept relations (compare statement).
const (
	RelUnrelated         = core.RelUnrelated
	RelOverlapping       = core.RelOverlapping
	RelLeftSubsumesRight = core.RelLeftSubsumesRight
	RelRightSubsumesLeft = core.RelRightSubsumesLeft
	RelEquivalent        = core.RelEquivalent
)

// New returns an empty in-memory knowledge base.
func New(opts ...Option) *KB { return kb.New(opts...) }

// Open returns a knowledge base whose facts persist under dir via a
// snapshot file and a CRC-checked write-ahead log with crash recovery.
// Rules are part of the program source; reload them after opening.
func Open(dir string, opts ...Option) (*KB, error) { return kb.Open(dir, opts...) }

// WithParallelism sets how many independent strata (SCCs of the rule
// dependency graph) the bottom-up engines may evaluate concurrently.
// n <= 0 selects GOMAXPROCS; the default is 1 (sequential).
func WithParallelism(n int) Option { return kb.WithParallelism(n) }

// WithQueryLimits sets the per-query resource limits the query governor
// enforces on every retrieve and describe evaluation: maximum wall
// time, derived facts, fixpoint iterations per stratum, top-down table
// entries, and describe search steps. Zero fields are unlimited;
// context cancellation (ExecContext and friends) is honored regardless.
func WithQueryLimits(l QueryLimits) Option { return kb.WithQueryLimits(l) }

// Observability types: the tracing and metrics layer (see WithTracer and
// WithMetrics).
type (
	// Tracer records one span tree per traced query and retains recent
	// traces in a ring. A nil *Tracer disables tracing at zero cost.
	Tracer = obs.Tracer
	// Span is one timed phase of a query (parse, analyze, eval, scc,
	// describe, storage, …) with typed attributes and child spans.
	Span = obs.Span
	// MetricsRegistry is a process-wide registry of counters, gauges,
	// and histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// MetricPoint is one exported metric sample (see MetricsRegistry
	// Snapshot).
	MetricPoint = obs.MetricPoint
)

// NewTracer returns a query tracer retaining the most recent traces.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithTracer attaches a span tracer to the KB: every query records a
// span tree of its phases. Nil keeps tracing disabled with no overhead
// on the query path.
func WithTracer(t *Tracer) Option { return kb.WithTracer(t) }

// WithMetrics registers the KB's instruments (query latency histograms
// by statement kind, fact/lookup tallies, governor stop reasons, WAL
// and snapshot timings) on the registry.
func WithMetrics(reg *MetricsRegistry) Option { return kb.WithMetrics(reg) }

// WriteTraceJSONL exports a span tree as JSON Lines, one span per line,
// pre-order, with microsecond offsets relative to the root.
func WriteTraceJSONL(w io.Writer, root *Span) error { return obs.WriteJSONL(w, root) }

// WriteChromeTrace exports span trees in the Chrome trace-event format
// (load in Perfetto or chrome://tracing).
func WriteChromeTrace(w io.Writer, roots []*Span) error { return obs.WriteChromeTrace(w, roots) }

// WriteTraceTree renders a span tree as an indented console listing.
func WriteTraceTree(w io.Writer, root *Span) error { return obs.WriteTree(w, root) }

// DebugHandler serves /metrics (Prometheus text), /debug/vars (expvar),
// and /debug/pprof/* over the registry.
func DebugHandler(reg *MetricsRegistry) http.Handler { return obs.DebugHandler(reg) }

// Provenance & explain types: the why-provenance layer behind the
// `explain` statement (see ExecResult.Explanation).
type (
	// Explanation is the reconstructed derivation of every answer to an
	// explain statement: one tree per answer fact, plus the legend of
	// rules the trees reference.
	Explanation = prov.Explanation
	// ExplainNode is one node of a derivation tree.
	ExplainNode = prov.Node
	// ExplainNodeKind classifies a derivation-tree node (derived, edb,
	// builtin, cycle, unknown, truncated).
	ExplainNodeKind = prov.NodeKind
	// QueryLog appends one JSONL record per finished query (optionally
	// only slow ones); see WithQueryLog.
	QueryLog = obs.QueryLog
	// QueryLogRecord is one line of the structured query log.
	QueryLogRecord = obs.QueryLogRecord
)

// Derivation-tree node kinds.
const (
	ExplainDerived   = prov.NodeDerived
	ExplainEDB       = prov.NodeEDB
	ExplainBuiltin   = prov.NodeBuiltin
	ExplainCycle     = prov.NodeCycle
	ExplainTruncated = prov.NodeTruncated
)

// NewQueryLog returns a structured query log writing JSONL to w. With
// slow > 0 only queries of at least that duration are logged; 0 logs
// every query.
func NewQueryLog(w io.Writer, slow time.Duration) *QueryLog { return obs.NewQueryLog(w, slow) }

// WithQueryLog attaches a structured query log to the KB: one JSONL
// record per finished query — statement, kind, latency, stop reason,
// evaluation deltas, and the root-span trace id when tracing is on.
func WithQueryLog(l *QueryLog) Option { return kb.WithQueryLog(l) }

// WriteExplainJSON exports an explanation as indented JSON.
func WriteExplainJSON(w io.Writer, e *Explanation) error { return e.WriteJSON(w) }

// WriteExplainChromeTrace exports an explanation's derivation trees in
// the Chrome trace-event format (load in Perfetto or chrome://tracing):
// a flame graph where width is subtree size.
func WriteExplainChromeTrace(w io.Writer, e *Explanation) error {
	return e.WriteChromeTrace(w)
}

// MetricsJSON renders the registry's current state as indented JSON.
func MetricsJSON(reg *MetricsRegistry) ([]byte, error) { return obs.MetricsJSON(reg) }

// Profiling & live introspection types: per-rule cost accounting behind
// the `profile` statement (see ExecResult.Profile and KB.SetProfiling)
// and the in-flight query registry behind /v1/debug/activity and
// `kdb top`.
type (
	// QueryProfile is the per-rule cost breakdown of one evaluation:
	// wall time, rounds, tuples, probes (index-hit vs full-scan), and
	// an allocation estimate per rule, renderable as an annotated plan
	// (String) or JSON (MarshalJSON).
	QueryProfile = profile.Profile
	// ProfileRow is one rule's cost row in a QueryProfile.
	ProfileRow = profile.Row
	// ProfileQuery is a parsed profile statement.
	ProfileQuery = parser.Profile
	// ActivityRegistry tracks the queries currently executing; cancel an
	// entry to stop its evaluation through the governor.
	ActivityRegistry = obs.ActivityRegistry
	// ActivityInfo is the wire snapshot of one in-flight query.
	ActivityInfo = obs.ActivityInfo
	// BuildInfo identifies the running binary (version, go version, VCS
	// revision); see RegisterBuildInfo.
	BuildInfo = obs.BuildInfo
	// RotatingWriter is a size-rotated log file writer (see
	// NewRotatingWriter); give one to NewQueryLog for bounded logs.
	RotatingWriter = obs.RotatingWriter
	// MetricsHistory is a bounded time-series ring buffer sampling a
	// MetricsRegistry on a ticker; it backs the sys_metric_history
	// virtual relation (see NewMetricsHistory and WithMetricsHistory).
	MetricsHistory = history.Buffer
	// SystemRelationDef describes one sys_* virtual relation (name,
	// arity, argument names, doc); see SystemRelations.
	SystemRelationDef = sysrel.Def
)

// NewActivityRegistry returns an empty in-flight query registry, shared
// across as many KBs as should be visible in one listing.
func NewActivityRegistry() *ActivityRegistry { return obs.NewActivityRegistry() }

// WithActivity attaches an in-flight query registry to the KB: every
// Exec-path query registers itself (statement, kind, tenant/client,
// trace id, stats-so-far) for the duration of its evaluation, and
// canceling its entry cancels the query — kdb's pg_stat_activity.
func WithActivity(reg *ActivityRegistry) Option { return kb.WithActivity(reg) }

// NewRotatingWriter returns a writer appending to path, rotating when
// the file would exceed maxMB megabytes (path → path.1 → … → path.keep,
// oldest deleted; keep <= 0 means 3). maxMB <= 0 disables rotation.
func NewRotatingWriter(path string, maxMB, keep int) (*RotatingWriter, error) {
	return obs.NewRotatingWriter(path, maxMB, keep)
}

// NewMetricsHistory returns a metrics-history ring buffer sampling reg
// every resolution, retaining retention worth of samples per series
// (non-positive values select the defaults, 5s and 10m). Call Start to
// begin sampling and Stop to end it; memory is bounded by
// retention/resolution samples per series and a series cap.
func NewMetricsHistory(reg *MetricsRegistry, resolution, retention time.Duration) *MetricsHistory {
	return history.New(reg, resolution, retention)
}

// WithMetricsHistory attaches a metrics-history buffer to the KB: its
// retained samples become the sys_metric_history virtual relation. The
// caller owns the buffer's Start/Stop lifecycle.
func WithMetricsHistory(b *MetricsHistory) Option { return kb.WithMetricsHistory(b) }

// WithQueryStats turns on per-statement execution statistics, queryable
// as the sys_query_stats virtual relation (count, total and max latency
// per distinct statement, bounded with an overflow bucket).
func WithQueryStats() Option { return kb.WithQueryStats() }

// WithoutSystemRelations disables the sys_* virtual relations on the
// KB; the namespace itself stays reserved. Mainly for measuring the
// provider's (near-zero) overhead.
func WithoutSystemRelations() Option { return kb.WithoutSystemRelations() }

// SystemRelations lists the sys_* virtual relations the engine serves
// about itself (sys_relation, sys_rule, sys_metric, sys_metric_history,
// sys_activity, sys_query_stats, sys_tenant) in a stable order.
func SystemRelations() []SystemRelationDef { return sysrel.Defs() }

// RegisterBuildInfo sets the kdb_build_info gauge (value 1, labeled
// with version, go version, and VCS revision) on the registry and
// returns the build identity for other surfaces (e.g. a health
// endpoint).
func RegisterBuildInfo(reg *MetricsRegistry) BuildInfo { return obs.RegisterBuildInfo(reg) }

// ParseTraceparent extracts the low 64 bits of the trace id from a W3C
// traceparent header value; ok is false when the header is malformed or
// carries an all-zero trace id.
func ParseTraceparent(h string) (id uint64, ok bool) { return obs.ParseTraceparent(h) }

// Server types: the HTTP+JSON data plane of `kdb serve` — named
// multi-tenant knowledge bases, prepared parameterized statements, and
// per-tenant quotas over the library's concurrency guarantees.
type (
	// Server hosts many named tenant KBs over HTTP+JSON.
	Server = server.Server
	// ServerConfig assembles a Server (root directory, open-KB bound,
	// idle eviction, quota ceiling, observability hooks).
	ServerConfig = server.Config
	// ClientInfo identifies a request's tenant and client in query-log
	// records (see ContextWithClientInfo).
	ClientInfo = obs.ClientInfo
)

// ErrServerOverloaded matches (via errors.Is) the error a Server
// returns when its open-KB bound is reached and every open tenant is
// busy; the HTTP surface maps it to 503.
var ErrServerOverloaded = server.ErrOverloaded

// NewServer builds the HTTP data plane over a set of tenant KBs; serve
// its Handler with net/http and Close it on shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ContextWithClientInfo labels every query run under the context with
// a tenant and client identity; the structured query log records both.
func ContextWithClientInfo(ctx context.Context, ci ClientInfo) context.Context {
	return obs.ContextWithClient(ctx, ci)
}

// ParseProgram parses knowledge-base source text (facts, rules,
// declarations).
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseProgramFile parses knowledge-base source text, anchoring clause
// positions (and hence diagnostics) to the given file name.
func ParseProgramFile(name, src string) (*Program, error) {
	return parser.ParseProgramFile(name, src)
}

// ParseQuery parses one query statement (retrieve / describe / compare).
func ParseQuery(src string) (Query, error) { return parser.ParseQuery(src) }

// ParseQueries parses a sequence of query statements.
func ParseQueries(src string) ([]Query, error) { return parser.ParseQueries(src) }

// ParseAtom parses a single atom, e.g. `can_ta(X, databases)`.
func ParseAtom(src string) (Atom, error) { return parser.ParseAtom(src) }

// ParseFormula parses a conjunction, e.g. `student(X, math, V) and V > 3.7`.
func ParseFormula(src string) (Formula, error) { return parser.ParseFormula(src) }

// Var returns a logical variable.
func Var(name string) Term { return term.Var(name) }

// Sym returns a symbolic constant.
func Sym(name string) Term { return term.Sym(name) }

// Num returns a numeric constant.
func Num(v float64) Term { return term.Num(v) }

// Str returns a string constant.
func Str(s string) Term { return term.Str(s) }

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom { return term.NewAtom(pred, args...) }
