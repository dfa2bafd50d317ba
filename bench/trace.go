package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the recorder started. A span with Parent 0 is a root.
type span struct {
	ID        int            `json:"id"`
	Parent    int            `json:"parent"`
	Name      string         `json:"name"`
	RequestID string         `json:"request_id"`
	Start     int64          `json:"start_ns"`
	End       int64          `json:"end_ns"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Load-phase goroutines
// add client spans concurrently; the in-process replay runs on one
// goroutine.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add stores a finished span and returns its ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// root opens a root span for one replayed input; finish it with end.
func (r *recorder) root(name, rid string) int {
	return r.add(span{Name: name, RequestID: rid, Start: r.now()})
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// begin opens a child span of parent; finish it with end.
func (r *recorder) begin(parent int, name string) int {
	r.mu.Lock()
	rid := r.spans[parent-1].RequestID
	r.mu.Unlock()
	return r.add(span{Parent: parent, Name: name, RequestID: rid, Start: r.now()})
}

// do runs fn as a child span of parent.
func (r *recorder) do(parent int, name string, fn func()) {
	id := r.begin(parent, name)
	fn()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// clientSpan records one load-phase request, just completed, as a root
// span from its due time to now, with the input, the server's own timing
// and the cache outcome attached. Inputs repeat, so the request ID is the
// client and the due time.
func (r *recorder) clientSpan(name string, s *sample) {
	end := r.now()
	attrs := map[string]any{"status": s.status, "input": s.input}
	if s.cache != "" {
		attrs["cache"] = s.cache
	}
	if el, ok := elapsedMS(s.body); ok {
		attrs["elapsed_ms"] = el
	}
	r.add(span{
		Name:      name,
		RequestID: "load-" + strconv.Itoa(s.client) + "-" + strconv.FormatInt(int64(s.due), 10),
		Start:     end - int64(s.latency()),
		End:       end,
		Attrs:     attrs,
	})
}

// selfTimes returns each span's duration minus the part of it its children
// cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, hi)
		}
		out[i] = s.dur() - covered
	}
	return out
}

// isReplayRoot reports whether s is the root of one in-process replay, as
// opposed to a load-phase client span.
func isReplayRoot(s span) bool { return s.Parent == 0 && !strings.HasPrefix(s.Name, "client.") }

// coverage is 1 − (root self time ÷ root time) over the replay roots: the
// share of the replayed work the layer spans account for.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var selfSum, total int64
	for i, s := range spans {
		if isReplayRoot(s) {
			selfSum += self[i]
			total += s.dur()
		}
	}
	return 1 - ratio(float64(selfSum), float64(total))
}

// layerTimes returns, for each child span name, the per-root totals over
// the replay roots that contain it.
func layerTimes(spans []span) map[string][]time.Duration {
	perRoot := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		root := s.Parent
		for spans[root-1].Parent != 0 {
			root = spans[root-1].Parent
		}
		if perRoot[root] == nil {
			perRoot[root] = map[string]time.Duration{}
		}
		perRoot[root][s.Name] += time.Duration(s.dur())
	}
	roots := make([]int, 0, len(perRoot))
	for id := range perRoot {
		roots = append(roots, id)
	}
	sort.Ints(roots)
	out := map[string][]time.Duration{}
	for _, id := range roots {
		for name, d := range perRoot[id] {
			out[name] = append(out[name], d)
		}
	}
	return out
}

// rootDurations returns the durations of the replay roots named name.
func rootDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, ms(time.Duration(s.dur())))
		}
	}
	return out
}

// writeSpans saves the spans and the per-layer metrics derived from them.
func writeSpans(path string, spans []span, metrics []metric) error {
	data, err := json.MarshalIndent(struct {
		Spans   []span   `json:"spans"`
		Metrics []metric `json:"metrics"`
	}{spans, metrics}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// medianOf is the median of durations in the given unit.
func medianOf(ds []time.Duration, unit func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

func sumOf(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
