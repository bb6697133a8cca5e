package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"entityres/er"
	"entityres/internal/serve"
)

func openTestResolver(t *testing.T) er.Resolver {
	t.Helper()
	res, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Close() })
	ctx := context.Background()
	for i, attrs := range [][]er.Attribute{
		{{Name: "name", Value: "alice smith"}, {Name: "city", Value: "athens"}},
		{{Name: "name", Value: "alice smith"}, {Name: "city", Value: "athens gr"}},
		{{Name: "name", Value: "bob jones"}, {Name: "city", Value: "berlin"}},
	} {
		if _, err := res.Insert(ctx, &er.Description{URI: fmt.Sprintf("urn:e%d", i), Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func get(t *testing.T, handler http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return v
}

func TestEndpoints(t *testing.T) {
	t.Parallel()
	s := serve.NewServer(openTestResolver(t), serve.Options{})
	h := s.Handler()

	code, body := get(t, h, "/v1/lookup?uri=urn:e0")
	if code != http.StatusOK {
		t.Fatalf("lookup: %d %s", code, body)
	}
	d := decode[serve.DescriptionJSON](t, body)
	if d.URI != "urn:e0" || len(d.Attrs) != 2 {
		t.Fatalf("lookup answered %+v", d)
	}

	// The same description addressed by handle must answer identically.
	code, body2 := get(t, h, fmt.Sprintf("/v1/lookup?id=%d", d.ID))
	if code != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("lookup by id diverged: %d %s vs %s", code, body2, body)
	}

	code, body = get(t, h, "/v1/same-as?uri=urn:e0")
	if code != http.StatusOK {
		t.Fatalf("same-as: %d %s", code, body)
	}
	sa := decode[serve.SameAsJSON](t, body)
	if len(sa.SameAs) != 1 || sa.SameAs[0].URI != "urn:e1" {
		t.Fatalf("same-as answered %+v, want the one duplicate urn:e1", sa)
	}

	code, body = get(t, h, "/v1/cluster?uri=urn:e1")
	if code != http.StatusOK {
		t.Fatalf("cluster: %d %s", code, body)
	}
	cl := decode[serve.ClusterJSON](t, body)
	if len(cl.Members) != 2 {
		t.Fatalf("cluster answered %+v, want both duplicates", cl)
	}
	code, body = get(t, h, "/v1/cluster?uri=urn:e2")
	cl = decode[serve.ClusterJSON](t, body)
	if code != http.StatusOK || len(cl.Members) != 1 {
		t.Fatalf("singleton cluster answered %d %+v", code, cl)
	}

	code, body = get(t, h, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	st := decode[serve.StatsJSON](t, body)
	if st.Inserts != 3 || st.Live != 3 || st.Matches != 1 || st.Clusters != 1 {
		t.Fatalf("stats answered %+v", st)
	}
}

// TestServerStatsCounters: the serving layer's own request accounting
// rides /v1/stats — atomics, maintained on every path.
func TestServerStatsCounters(t *testing.T) {
	t.Parallel()
	s := serve.NewServer(openTestResolver(t), serve.Options{})
	h := s.Handler()

	if code, _ := get(t, h, "/v1/lookup?uri=urn:e0"); code != http.StatusOK {
		t.Fatalf("lookup: %d", code)
	}
	if code, _ := get(t, h, "/v1/lookup?uri=urn:nope"); code != http.StatusNotFound {
		t.Fatalf("missing lookup: %d", code)
	}
	rec := httptest.NewRecorder()
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ops",
		strings.NewReader(`{"ops":[{"op":"insert","uri":"urn:c0","attrs":[{"name":"name","value":"new one"}]}]}`)))
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/ops", strings.NewReader(`{"ops":[`)))
	if rec.Code != http.StatusOK || rec2.Code != http.StatusBadRequest {
		t.Fatalf("ingest pair answered %d / %d", rec.Code, rec2.Code)
	}

	code, body := get(t, h, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	sv := decode[serve.StatsJSON](t, body).Server
	// The stats request itself snapshots the counters before being counted.
	if sv.Queries != 2 || sv.QueryErrors != 1 || sv.Refused != 0 {
		t.Fatalf("query counters %+v, want 2 queries / 1 error / 0 refused", sv)
	}
	if sv.IngestRequests != 2 || sv.IngestOps != 1 || sv.IngestErrors != 1 || sv.IngestRefused != 0 {
		t.Fatalf("ingest counters %+v, want 2 requests / 1 op / 1 error / 0 refused", sv)
	}
	if sv.DrainRate <= 0 {
		t.Fatalf("no drain rate observed after a successful apply: %+v", sv)
	}
}

func TestRequestErrors(t *testing.T) {
	t.Parallel()
	s := serve.NewServer(openTestResolver(t), serve.Options{})
	h := s.Handler()
	for path, want := range map[string]int{
		"/v1/lookup?uri=urn:nope":    http.StatusNotFound,
		"/v1/lookup?id=999":          http.StatusNotFound,
		"/v1/lookup":                 http.StatusBadRequest,
		"/v1/lookup?id=abc":          http.StatusBadRequest,
		"/v1/lookup?id=-4":           http.StatusBadRequest,
		"/v1/lookup?uri=urn:e0&id=1": http.StatusBadRequest,
		"/v1/same-as?uri=urn:nope":   http.StatusNotFound,
		"/v1/cluster":                http.StatusBadRequest,
	} {
		code, body := get(t, h, path)
		if code != want {
			t.Errorf("%s answered %d %s, want %d", path, code, body, want)
		}
		e := decode[map[string]string](t, body)
		if e["error"] == "" {
			t.Errorf("%s: no error body: %s", path, body)
		}
	}
}

// slowResolver delays every Query until released, to hold requests in
// flight deterministically.
type slowResolver struct {
	er.Resolver
	entered chan struct{} // one send per Query that starts waiting
	release chan struct{} // closed to let them finish
}

func (s *slowResolver) Query(ctx context.Context, q er.Query) (er.Result, error) {
	s.entered <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
		return er.Result{}, ctx.Err()
	}
	return s.Resolver.Query(ctx, q)
}

func TestAdmissionControlInFlight(t *testing.T) {
	t.Parallel()
	slow := &slowResolver{
		Resolver: openTestResolver(t),
		entered:  make(chan struct{}, 8),
		release:  make(chan struct{}),
	}
	s := serve.NewServer(slow, serve.Options{MaxInFlight: 2, RequestTimeout: 5 * time.Second})
	h := s.Handler()

	// Fill both slots.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = get(t, h, "/v1/lookup?uri=urn:e0")
		}()
		<-slow.entered
	}
	// The third request must be refused immediately, not queued.
	start := time.Now()
	code, body := get(t, h, "/v1/stats")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-admitted request answered %d %s, want 503", code, body)
	}
	if time.Since(start) > time.Second {
		t.Fatal("refusal was queued instead of immediate")
	}
	close(slow.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request %d answered %d", i, c)
		}
	}
	// Slots freed: admission works again.
	if code, _ := get(t, h, "/v1/stats"); code != http.StatusOK {
		t.Fatalf("post-burst request answered %d", code)
	}
}

func TestRequestDeadline(t *testing.T) {
	t.Parallel()
	slow := &slowResolver{
		Resolver: openTestResolver(t),
		entered:  make(chan struct{}, 1),
		release:  make(chan struct{}), // never released: only the deadline ends it
	}
	s := serve.NewServer(slow, serve.Options{RequestTimeout: 50 * time.Millisecond})
	start := time.Now()
	code, body := get(t, s.Handler(), "/v1/lookup?uri=urn:e0")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("overlong request answered %d %s, want 504", code, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline fired after %v", elapsed)
	}
}

// TestGracefulDrain starts a real listener, holds a request in flight,
// drains, and asserts the in-flight request completes while new ones are
// refused — then the listener is down.
func TestGracefulDrain(t *testing.T) {
	t.Parallel()
	slow := &slowResolver{
		Resolver: openTestResolver(t),
		entered:  make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
	s := serve.NewServer(slow, serve.Options{DrainTimeout: 5 * time.Second})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(lis) }()
	base := "http://" + lis.Addr().String()

	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(base + "/v1/lookup?uri=urn:e0")
		if err != nil {
			t.Error(err)
			inflight <- nil
			return
		}
		inflight <- resp
	}()
	<-slow.entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// While draining, new requests on existing knowledge of the addr are
	// refused with 503 (until the listener closes entirely).
	deadline := time.After(2 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			break // listener already down — also a valid refusal
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		select {
		case <-deadline:
			t.Fatal("draining server kept answering 200")
		case <-time.After(10 * time.Millisecond):
		}
	}

	// The in-flight request still completes.
	close(slow.release)
	resp := <-inflight
	if resp == nil {
		t.Fatal("in-flight request failed during drain")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request answered %d during drain, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Fully down now.
	if _, err := http.Get(base + "/v1/stats"); err == nil {
		t.Fatal("drained server still accepting connections")
	}
}

// TestServeLifecycle covers the remaining server plumbing: Close tears the
// listener down without a drain, and a second Serve on the same server is
// refused.
func TestServeLifecycle(t *testing.T) {
	res := openTestResolver(t)
	srv := serve.NewServer(res, serve.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis2); err == nil {
		t.Fatal("second Serve accepted")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestServeRefusedAfterStop: a server that was drained or closed before it
// ever served must not start serving later — Serve fails and releases the
// listener instead of bringing up a live server nobody can stop.
func TestServeRefusedAfterStop(t *testing.T) {
	for name, stop := range map[string]func(*serve.Server) error{
		"drain": func(s *serve.Server) error { return s.Drain(context.Background()) },
		"close": (*serve.Server).Close,
	} {
		t.Run(name, func(t *testing.T) {
			srv := serve.NewServer(openTestResolver(t), serve.Options{})
			if err := stop(srv); err != nil {
				t.Fatalf("%s before Serve: %v", name, err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(lis) }()
			select {
			case err := <-served:
				if err == nil {
					t.Fatalf("Serve after %s returned nil", name)
				}
			case <-time.After(2 * time.Second):
				srv.Close()
				lis.Close()
				t.Fatalf("Serve after %s started a live server", name)
			}
			if conn, err := net.Dial("tcp", lis.Addr().String()); err == nil {
				conn.Close()
				t.Fatalf("listener still accepting after a refused Serve")
			}
		})
	}
}
