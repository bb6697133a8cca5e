package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public functions; the program under test carries none yet.
// They stay in memory and are written as JSON lines when the run ends.

// span is one timed call: its layer-qualified name, start and end in
// nanoseconds since the tracer began, the span that caused it (-1 for a
// root) and the workload it belongs to.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// untraced runs share the traced runs' code.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Workload: t.workload})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// durationsUS returns, per span name, every span's duration in µs.
func (t *tracer) durationsUS() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// writeSpans appends the tracers' spans to path as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The allocation and heap readings come from runtime/metrics, which does
// not stop the world: runtime.ReadMemStats does, and on a shared two-core
// host a stop waits for whichever thread the hypervisor has descheduled.

// readMetrics reads the named runtime metrics as unsigned integers.
func readMetrics(names ...string) []uint64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]uint64, len(names))
	for i, s := range samples {
		out[i] = s.Value.Uint64()
	}
	return out
}

// memDelta measures what a region allocated.
type memDelta struct{ bytes, objects uint64 }

func startMem() memDelta {
	v := readMetrics("/gc/heap/allocs:bytes", "/gc/heap/allocs:objects")
	return memDelta{v[0], v[1]}
}

// stop returns the megabytes and the objects allocated since startMem.
func (m memDelta) stop() (mb float64, objects uint64) {
	now := startMem()
	return float64(now.bytes-m.bytes) / (1 << 20), now.objects - m.objects
}

// heapSampler records the peak live heap and the GC pause total of a traced
// region, sampling the heap every 20 ms.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
	pause0 uint64
}

func liveHeap() uint64 { return readMetrics("/memory/classes/heap/objects:bytes")[0] }

func startHeapSampler() *heapSampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap(), pause0: ms.PauseTotalNs}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MB and the GC pause
// in ms accumulated since it started.
func (h *heapSampler) finish() (peakMB, pauseMS float64) {
	close(h.stop)
	<-h.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(max(h.peak, liveHeap())) / (1 << 20), float64(ms.PauseTotalNs-h.pause0) / 1e6
}
