package obs

// Prometheus text exposition: WritePrometheus renders every instrument
// a Recorder holds in the Prometheus text format (version 0.0.4), so a
// live server exposes the same counters the JSON run report snapshots
// — scrapeable at an interval instead of read once at exit.
//
// Mapping (instrument names are sanitized to [a-zA-Z0-9_]):
//
//   - Counter  c → c_total (TYPE counter)
//   - Gauge    g → g and g_high (TYPE gauge; level + high-water mark)
//   - Histogram h → h histogram: cumulative h_bucket{le="2^i"} for the
//     power-of-two buckets, h_bucket{le="+Inf"}, h_sum, h_count. The
//     last internal bucket absorbs arbitrarily large observations, so
//     it renders only into +Inf. Durations are histograms whose names
//     carry the unit ("serve.compile_ns" → serve_compile_ns).

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the recorder's instruments in Prometheus
// text format, metric families sorted by name. On a nil recorder it
// writes a single comment line, so a scrape of a server with
// observability disabled is still valid exposition.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		fmt.Fprintf(bw, "# observability disabled (no recorder enabled)\n")
		return bw.Flush()
	}
	// Snapshot the instrument maps under the lock; the instruments
	// themselves are read lock-free (they are atomics).
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", pn, pn, g.Value())
		fmt.Fprintf(bw, "# TYPE %s_high gauge\n%s_high %d\n", pn, pn, g.High())
	}
	for _, name := range sortedKeys(hists) {
		writePromHistogram(bw, promName(name), hists[name])
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram family with cumulative le
// buckets. Power-of-two bucket i holds v with bits.Len64(v) == i, i.e.
// v < 2^i, so the cumulative count through bucket i is exact at
// le="2^i"; bucket 0 (non-positive observations) renders at le="0".
// Only buckets that change the cumulative count are emitted — sparse
// bucket lists are valid exposition. Every duration is a histogram, so
// this is the bulk of a scrape: it writes strings and integers
// directly rather than through fmt.
func writePromHistogram(w *bufio.Writer, pn string, h *Histogram) {
	w.WriteString("# TYPE ")
	w.WriteString(pn)
	w.WriteString(" histogram\n")
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		writeSample(w, pn, bucketSuffix[i], cum)
	}
	// The last internal bucket has no finite upper bound; it (and any
	// racing concurrent observations) folds into +Inf via Count.
	writeSample(w, pn, `_bucket{le="+Inf"}`, h.Count())
	writeSample(w, pn, "_sum", h.Sum())
	writeSample(w, pn, "_count", h.Count())
}

// bucketSuffix[i] is the series suffix of finite bucket i:
// _bucket{le="0"} for bucket 0, _bucket{le="2^i"} after it.
var bucketSuffix = func() (s [histBuckets - 1]string) {
	s[0] = `_bucket{le="0"}`
	for i := 1; i < len(s); i++ {
		s[i] = fmt.Sprintf(`_bucket{le="%d"}`, int64(1)<<uint(i))
	}
	return s
}()

// writeSample writes one "<pn><suffix> <v>" sample line.
func writeSample(w *bufio.Writer, pn, suffix string, v int64) {
	w.WriteString(pn)
	w.WriteString(suffix)
	w.WriteByte(' ')
	var num [20]byte
	w.Write(strconv.AppendInt(num[:0], v, 10))
	w.WriteByte('\n')
}

// promName sanitizes an instrument name ("serve.latency_ns.sweep")
// into a Prometheus metric name ("serve_latency_ns_sweep"): every rune
// outside [a-zA-Z0-9_] becomes '_', and a leading digit is prefixed.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
