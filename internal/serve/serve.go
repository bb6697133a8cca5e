// Package serve exposes a resolver deployment as an HTTP/JSON service:
// lookup, same-as, cluster-members and stats queries plus bulk ingest
// (POST /v1/ops) over any er.Resolver — single-node, durable, sharded or
// networked, since the interface is deployment-agnostic by construction.
//
// The server applies admission control before any resolver work. Queries
// pass a bounded in-flight gate (excess requests are refused immediately
// with 503, never queued, so a burst cannot build an invisible backlog)
// and a per-request deadline (a query that outlives it answers 504 and
// its result is discarded). Ingest is admitted against a bounded
// OPERATION budget: a batch that would push the queued-op total past the
// bound is refused with 429 and a Retry-After hint, so back-pressure
// reaches the producer instead of accumulating as hidden memory. Draining
// flips both gates closed, lets in-flight requests finish, and only then
// tears the listener down — a rolling restart loses no accepted request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"entityres/er"
	"entityres/internal/entity"
	"entityres/internal/incremental"
)

// Options tunes the query service.
type Options struct {
	// MaxInFlight bounds concurrently-admitted requests (default 64).
	// Requests beyond the bound are refused with 503 immediately.
	MaxInFlight int
	// RequestTimeout bounds one request's resolver work (default 5s);
	// expiry answers 504.
	RequestTimeout time.Duration
	// DrainTimeout bounds Drain's wait for in-flight requests (default 10s).
	DrainTimeout time.Duration
	// MaxBatchOps bounds the operations one POST /v1/ops request may carry
	// (default 4096); a larger batch is refused with 413.
	MaxBatchOps int
	// MaxQueuedOps bounds the TOTAL operations admitted for ingest and not
	// yet applied, across concurrent requests (default 8192). A batch that
	// would overflow the budget is refused with 429 and a Retry-After hint
	// derived from the observed drain rate.
	MaxQueuedOps int
	// CoalesceWindow and CoalesceMax enable server-side ingest coalescing:
	// co-arriving singleton POST /v1/ops requests park behind a small
	// time/size window and commit as ONE resolver batch — the journal
	// layer's group-commit trick one level up, each caller acknowledged
	// with its own op's outcome. Setting either enables it (the other
	// falls back to its default: 2ms window, 256 ops); both zero — the
	// default — disables coalescing and preserves the per-request apply
	// semantics exactly. The window is a deliberate latency trade: a
	// singleton op waits up to CoalesceWindow for company, in exchange for
	// one lock, one journal fsync and one shard fan-out per formed batch
	// instead of per op.
	CoalesceWindow time.Duration
	CoalesceMax    int
}

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 64
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout > 0 {
		return o.RequestTimeout
	}
	return 5 * time.Second
}

func (o Options) drainTimeout() time.Duration {
	if o.DrainTimeout > 0 {
		return o.DrainTimeout
	}
	return 10 * time.Second
}

func (o Options) maxBatchOps() int {
	if o.MaxBatchOps > 0 {
		return o.MaxBatchOps
	}
	return 4096
}

func (o Options) maxQueuedOps() int {
	if o.MaxQueuedOps > 0 {
		return o.MaxQueuedOps
	}
	return 8192
}

func (o Options) coalesceEnabled() bool {
	return o.CoalesceWindow > 0 || o.CoalesceMax > 0
}

func (o Options) coalesceWindow() time.Duration {
	if o.CoalesceWindow > 0 {
		return o.CoalesceWindow
	}
	return 2 * time.Millisecond
}

func (o Options) coalesceMax() int {
	if o.CoalesceMax > 0 {
		return o.CoalesceMax
	}
	return 256
}

// Server is the HTTP/JSON query service over one resolver. The request hot
// paths are lock-free on the server side: admission (draining flag,
// in-flight gate, queued-op budget) and the request/error counters are all
// atomics, so queries and /v1/stats never contend on a server mutex — the
// only lock guards the http.Server lifecycle.
type Server struct {
	res  er.Resolver
	opts Options

	// gate holds one token per admitted request.
	gate chan struct{}

	// draining refuses new requests once Drain begins; queuedOps is the
	// ingest back-pressure state (operations admitted and not yet applied,
	// bounded by Options.MaxQueuedOps, reserved by CAS).
	draining  atomic.Bool
	queuedOps atomic.Int64

	// Request and error counters, surfaced under /v1/stats "server".
	queriesServed  atomic.Int64
	queriesRefused atomic.Int64
	queryErrors    atomic.Int64
	ingestRequests atomic.Int64
	ingestOps      atomic.Int64
	ingestRefused  atomic.Int64
	ingestErrors   atomic.Int64

	// drainRate is the EWMA of ingest operations retired per second
	// (math.Float64bits in the atomic; zero until the first apply
	// completes). It turns the 429 Retry-After hint from a constant into
	// backlog/rate — producers back off proportionally to how far behind
	// the resolver actually is.
	drainRate atomic.Uint64

	// coal, when non-nil, merges co-arriving singleton ingest requests
	// into server-formed batches (see coalesce.go).
	coal *coalescer

	mu      sync.Mutex
	httpSrv *http.Server
	// stopped is set by Drain and Close: a stopped server never serves
	// again, whether or not Serve had started before the stop.
	stopped bool
}

// NewServer wraps res. The caller keeps ownership of res: Close/Drain stop
// the HTTP side only.
func NewServer(res er.Resolver, opts Options) *Server {
	s := &Server{
		res:  res,
		opts: opts,
		gate: make(chan struct{}, opts.maxInFlight()),
	}
	if opts.coalesceEnabled() {
		s.coal = newCoalescer(s.commitCoalesced, opts.coalesceWindow(), opts.coalesceMax())
	}
	return s
}

// Handler returns the service's routes:
//
//	GET /v1/lookup?uri=U | ?id=N   → DescriptionJSON
//	GET /v1/same-as?uri=U | ?id=N  → SameAsJSON
//	GET /v1/cluster?uri=U | ?id=N  → ClusterJSON
//	GET /v1/stats                  → StatsJSON
//	POST /v1/ops {ops: [OpJSON]}   → OpsResultJSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/lookup", s.wrap(s.lookup))
	mux.HandleFunc("GET /v1/same-as", s.wrap(s.sameAs))
	mux.HandleFunc("GET /v1/cluster", s.wrap(s.cluster))
	mux.HandleFunc("GET /v1/stats", s.wrap(s.stats))
	mux.HandleFunc("POST /v1/ops", s.ingest)
	return mux
}

// Serve answers requests on lis until Drain or Close. A server serves at
// most once: Serve after another Serve, Drain or Close closes lis and fails.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.httpSrv != nil || s.stopped {
		s.mu.Unlock()
		lis.Close()
		if s.stopped {
			return fmt.Errorf("serve: server was drained or closed")
		}
		return fmt.Errorf("serve: server already started")
	}
	srv := &http.Server{Handler: s.Handler()}
	s.httpSrv = srv
	s.mu.Unlock()
	if err := srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Drain stops admitting requests, waits for the in-flight ones (up to
// DrainTimeout) and shuts the listener down. Safe to call once Serve is
// running; later requests are refused with 503 while the drain proceeds.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Flush any ingest window still forming: the parked requests were
	// admitted before the drain began, so they are acknowledged — applied
	// and answered — before the listener goes down, not dropped.
	if s.coal != nil {
		s.coal.drain()
	}
	s.mu.Lock()
	s.stopped = true
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, s.opts.drainTimeout())
	defer cancel()
	return srv.Shutdown(dctx)
}

// Close is an immediate teardown: no drain, open connections drop.
func (s *Server) Close() error {
	s.mu.Lock()
	s.stopped = true
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

// DescriptionJSON renders one live description.
type DescriptionJSON struct {
	ID     entity.ID  `json:"id"`
	URI    string     `json:"uri"`
	Source int        `json:"source"`
	Attrs  []AttrJSON `json:"attrs,omitempty"`
}

// AttrJSON is one attribute in the wire form the op-log exchange format
// uses: lower-case name/value keys.
type AttrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func attrsJSON(attrs []entity.Attribute) []AttrJSON {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]AttrJSON, len(attrs))
	for i, a := range attrs {
		out[i] = AttrJSON{Name: a.Name, Value: a.Value}
	}
	return out
}

// SameAsJSON answers a same-as query: the handles and URIs currently
// matched to the selected description.
type SameAsJSON struct {
	ID     entity.ID `json:"id"`
	URI    string    `json:"uri"`
	SameAs []RefJSON `json:"same_as"`
}

// RefJSON is a handle/URI reference to a live description.
type RefJSON struct {
	ID  entity.ID `json:"id"`
	URI string    `json:"uri"`
}

// ClusterJSON answers a cluster-members query.
type ClusterJSON struct {
	ID      entity.ID `json:"id"`
	URI     string    `json:"uri"`
	Members []RefJSON `json:"members"`
}

// StatsJSON mirrors the resolver's counters plus the server's own.
type StatsJSON struct {
	Inserts        int64 `json:"inserts"`
	Updates        int64 `json:"updates"`
	Deletes        int64 `json:"deletes"`
	Live           int   `json:"live"`
	Comparisons    int64 `json:"comparisons"`
	Matches        int   `json:"matches"`
	Clusters       int   `json:"clusters"`
	CandidatePairs int   `json:"candidate_pairs,omitempty"`
	KeptPairs      int   `json:"kept_pairs,omitempty"`

	Server ServerStatsJSON `json:"server"`
}

// ServerStatsJSON is the serving layer's own request accounting — all
// atomics, so reading it never contends with the query or ingest path.
type ServerStatsJSON struct {
	// Queries counts answered query requests, QueryErrors the ones that
	// answered non-2xx (bad input, not-found, timeout), Refused the ones
	// shed at admission (503: draining or in-flight gate full).
	Queries     int64 `json:"queries"`
	QueryErrors int64 `json:"query_errors"`
	Refused     int64 `json:"refused"`
	// IngestRequests counts POST /v1/ops requests, IngestOps the
	// operations they applied, IngestRefused the 429 budget refusals and
	// IngestErrors the requests that failed (bad body, rejected batch).
	IngestRequests int64 `json:"ingest_requests"`
	IngestOps      int64 `json:"ingest_ops"`
	IngestRefused  int64 `json:"ingest_refused"`
	IngestErrors   int64 `json:"ingest_errors"`
	// CoalescedBatches counts server-formed multi-op batches and
	// CoalescedOps the singleton requests they merged (zero with
	// coalescing off).
	CoalescedBatches int64 `json:"coalesced_batches,omitempty"`
	CoalescedOps     int64 `json:"coalesced_ops,omitempty"`
	// DrainRate is the EWMA of ingest ops retired per second — the basis
	// of the 429 Retry-After hint.
	DrainRate float64 `json:"drain_rate_ops_per_sec,omitempty"`
}

func (s *Server) serverStats() ServerStatsJSON {
	out := ServerStatsJSON{
		Queries:        s.queriesServed.Load(),
		QueryErrors:    s.queryErrors.Load(),
		Refused:        s.queriesRefused.Load(),
		IngestRequests: s.ingestRequests.Load(),
		IngestOps:      s.ingestOps.Load(),
		IngestRefused:  s.ingestRefused.Load(),
		IngestErrors:   s.ingestErrors.Load(),
		DrainRate:      math.Float64frombits(s.drainRate.Load()),
	}
	if s.coal != nil {
		out.CoalescedBatches = s.coal.batches.Load()
		out.CoalescedOps = s.coal.coalesced.Load()
	}
	return out
}

func statsJSON(st incremental.Stats) StatsJSON {
	return StatsJSON{
		Inserts: st.Inserts, Updates: st.Updates, Deletes: st.Deletes,
		Live: st.Live, Comparisons: st.Comparisons,
		Matches: st.Matches, Clusters: st.Clusters,
		CandidatePairs: st.CandidatePairs, KeptPairs: st.KeptPairs,
	}
}

// httpError carries a status code through the handler plumbing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// wrap applies admission control around one handler: the in-flight gate,
// the per-request deadline, and uniform JSON error rendering.
func (s *Server) wrap(h func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.queriesRefused.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "serve: draining"})
			return
		}
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		default:
			s.queriesRefused.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "serve: too many in-flight requests"})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.requestTimeout())
		defer cancel()
		// The resolver call runs aside so an overlong query answers 504 at
		// the deadline instead of holding the connection; the stray result
		// is discarded when it eventually lands.
		type outcome struct {
			body any
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			body, err := h(ctx, r)
			done <- outcome{body, err}
		}()
		select {
		case <-ctx.Done():
			s.queriesServed.Add(1)
			s.queryErrors.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: "serve: request deadline exceeded"})
		case out := <-done:
			s.queriesServed.Add(1)
			switch {
			case out.err == nil:
				writeJSON(w, http.StatusOK, out.body)
			default:
				s.queryErrors.Add(1)
				var nf *er.ErrNotFound
				var he *httpError
				switch {
				case errors.As(out.err, &nf):
					writeJSON(w, http.StatusNotFound, errorJSON{Error: out.err.Error()})
				case errors.As(out.err, &he):
					writeJSON(w, he.status, errorJSON{Error: he.msg})
				default:
					writeJSON(w, http.StatusInternalServerError, errorJSON{Error: out.err.Error()})
				}
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// parseQuery derives the er.Query a request selects.
func parseQuery(r *http.Request, cluster bool) (er.Query, error) {
	q := er.Query{URI: r.URL.Query().Get("uri"), Cluster: cluster}
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		if q.URI != "" {
			return q, &httpError{http.StatusBadRequest, "serve: pass uri or id, not both"}
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil || id < 0 {
			return q, &httpError{http.StatusBadRequest, fmt.Sprintf("serve: bad id %q", idStr)}
		}
		q.ID = entity.ID(id)
	} else if q.URI == "" {
		return q, &httpError{http.StatusBadRequest, "serve: pass uri or id"}
	}
	return q, nil
}

func (s *Server) lookup(ctx context.Context, r *http.Request) (any, error) {
	q, err := parseQuery(r, false)
	if err != nil {
		return nil, err
	}
	res, err := s.res.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return DescriptionJSON{
		ID: res.ID, URI: res.Description.URI,
		Source: res.Description.Source, Attrs: attrsJSON(res.Description.Attrs),
	}, nil
}

// refs renders handles with their URIs (skipping any that died between the
// match read and the description read — reads are not transactional).
func (s *Server) refs(ctx context.Context, ids []entity.ID) []RefJSON {
	out := make([]RefJSON, 0, len(ids))
	for _, id := range ids {
		if res, err := s.res.Query(ctx, er.Query{ID: id}); err == nil {
			out = append(out, RefJSON{ID: id, URI: res.Description.URI})
		}
	}
	return out
}

func (s *Server) sameAs(ctx context.Context, r *http.Request) (any, error) {
	q, err := parseQuery(r, false)
	if err != nil {
		return nil, err
	}
	res, err := s.res.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return SameAsJSON{ID: res.ID, URI: res.Description.URI, SameAs: s.refs(ctx, res.SameAs)}, nil
}

func (s *Server) cluster(ctx context.Context, r *http.Request) (any, error) {
	q, err := parseQuery(r, true)
	if err != nil {
		return nil, err
	}
	res, err := s.res.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return ClusterJSON{ID: res.ID, URI: res.Description.URI, Members: s.refs(ctx, res.Cluster)}, nil
}

// OpJSON is one URI-addressed operation of a bulk-ingest request — the
// same wire form the op-log exchange format (er.ReadStreamOps) uses.
type OpJSON struct {
	Op     string     `json:"op"`
	URI    string     `json:"uri"`
	Source int        `json:"source,omitempty"`
	Attrs  []AttrJSON `json:"attrs,omitempty"`
}

// OpsRequestJSON is the POST /v1/ops body.
type OpsRequestJSON struct {
	Ops []OpJSON `json:"ops"`
}

// OpsResultJSON acknowledges an applied batch.
type OpsResultJSON struct {
	Applied int `json:"applied"`
}

// maxOpsBodyBytes bounds an ingest request body; matched to the journal
// layer's record bound, anything that fits an append fits a request.
const maxOpsBodyBytes = 32 << 20

// admitOps reserves n operations of the ingest budget by CAS, refusing
// rather than queueing past the bound.
func (s *Server) admitOps(n int) (ok bool, queued int64) {
	bound := int64(s.opts.maxQueuedOps())
	for {
		cur := s.queuedOps.Load()
		if cur+int64(n) > bound {
			return false, cur
		}
		if s.queuedOps.CompareAndSwap(cur, cur+int64(n)) {
			return true, cur + int64(n)
		}
	}
}

func (s *Server) releaseOps(n int) { s.queuedOps.Add(-int64(n)) }

// drainEWMAAlpha weights the newest drain-rate sample; one sample per
// completed apply, so roughly the last dozen applies dominate the hint.
const drainEWMAAlpha = 0.3

// noteDrain folds one completed apply of n operations over elapsed d into
// the drain-rate EWMA.
func (s *Server) noteDrain(n int, d time.Duration) {
	if n <= 0 || d <= 0 {
		return
	}
	sample := float64(n) / d.Seconds()
	for {
		old := s.drainRate.Load()
		next := sample
		if old != 0 {
			next = drainEWMAAlpha*sample + (1-drainEWMAAlpha)*math.Float64frombits(old)
		}
		if s.drainRate.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter derives the 429 hint: the whole seconds the observed drain
// rate needs to retire the queued backlog, clamped to [1, 60]. Before any
// apply has completed there is no rate to extrapolate — hint 1.
func (s *Server) retryAfter(queued int64) int {
	rate := math.Float64frombits(s.drainRate.Load())
	if rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(queued) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// applyIngest runs one resolver batch, feeding the drain-rate EWMA and the
// applied-op counter on success. Both the direct ingest path and the
// coalescer commit through here.
func (s *Server) applyIngest(ctx context.Context, ops []er.StreamOp) error {
	start := time.Now()
	if err := s.res.ApplyBatch(ctx, ops); err != nil {
		return err
	}
	s.noteDrain(len(ops), time.Since(start))
	s.ingestOps.Add(int64(len(ops)))
	return nil
}

// commitCoalesced commits a server-formed batch under the server's own
// deadline: the merged batch belongs to several callers, so no single
// caller's context may cancel it (mirroring the admission-only contract of
// the direct path).
func (s *Server) commitCoalesced(ops []er.StreamOp) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.requestTimeout())
	defer cancel()
	return s.applyIngest(ctx, ops)
}

// ingest handles POST /v1/ops: one batch of URI-addressed operations,
// applied atomically through the resolver's batch path. Unlike queries,
// the resolver call is NOT abandoned at the deadline — the context gates
// batch ADMISSION only (an admitted batch completes), so the client's
// verdict always matches the resolver's.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	s.ingestRequests.Add(1)
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "serve: draining"})
		return
	}
	var req OpsRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxOpsBodyBytes)).Decode(&req); err != nil {
		s.ingestErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "serve: bad ops body: " + err.Error()})
		return
	}
	if len(req.Ops) == 0 {
		s.ingestErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "serve: ops batch is empty"})
		return
	}
	if len(req.Ops) > s.opts.maxBatchOps() {
		s.ingestErrors.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{
			Error: fmt.Sprintf("serve: batch of %d operations exceeds the %d-op bound; split it", len(req.Ops), s.opts.maxBatchOps()),
		})
		return
	}
	ops := make([]er.StreamOp, len(req.Ops))
	for i, j := range req.Ops {
		op := er.StreamOp{URI: j.URI, Source: j.Source}
		switch j.Op {
		case "insert":
			op.Kind = er.StreamInsert
		case "update":
			op.Kind = er.StreamUpdate
		case "delete":
			op.Kind = er.StreamDelete
		default:
			s.ingestErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("serve: ops[%d] has unknown op %q", i, j.Op)})
			return
		}
		for _, a := range j.Attrs {
			op.Attrs = append(op.Attrs, entity.Attribute{Name: a.Name, Value: a.Value})
		}
		ops[i] = op
	}
	ok, queued := s.admitOps(len(ops))
	if !ok {
		s.ingestRefused.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(queued)))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{
			Error: fmt.Sprintf("serve: ingest budget exhausted (%d operations queued, bound %d); retry after the hinted delay", queued, s.opts.maxQueuedOps()),
		})
		return
	}
	defer s.releaseOps(len(ops))
	var err error
	if s.coal != nil && len(ops) == 1 {
		// A singleton joins the forming server-side batch and is answered
		// with its own op's outcome once the window commits.
		err = s.coal.apply(ops[0])
	} else {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.requestTimeout())
		err = s.applyIngest(ctx, ops)
		cancel()
	}
	if err != nil {
		s.ingestErrors.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, er.ErrBroken) {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, OpsResultJSON{Applied: len(ops)})
}

func (s *Server) stats(ctx context.Context, r *http.Request) (any, error) {
	st, err := s.res.Stats()
	if err != nil {
		return nil, err
	}
	out := statsJSON(st)
	out.Server = s.serverStats()
	return out, nil
}
