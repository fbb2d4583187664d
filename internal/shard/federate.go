package shard

// Metrics federation: GET /v1/metrics?fleet=1 renders one exposition
// covering the whole serving tier. The router scrapes every healthy
// backend's /v1/metrics, parses each scrape with internal/promtext,
// and merges families by name together with its own instruments
// (source "router"):
//
//   - counters and untyped samples sum across sources
//   - gauges sum, except *_high takes the max (a fleet-wide
//     high-water mark, not a sum)
//   - histograms (every latency and phase duration) merge bucket-wise:
//     each source's cumulative counts become per-bucket deltas, deltas
//     sum over the union of bounds, and the union re-cumulates. Every
//     recorder buckets by powers of two, so the bounds align and the
//     merge is exact — the fleet histogram is what one recorder
//     observing all requests would have produced, not an
//     approximation.
//
// Each family is emitted as one unlabeled aggregate series plus one
// series per source labeled backend="router"|"0"|"1"|..., so a single
// scrape graphs both the fleet total and the per-worker breakdown. A
// backend that cannot be scraped (or whose exposition does not parse)
// degrades to a "# fleet:" comment instead of failing the exposition,
// and so does a family the merge has no rule for (a summary from a
// worker on an older build, say) or one whose sources disagree on its
// type.

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/promtext"
)

// fleetSource is one successfully parsed exposition in the merge.
type fleetSource struct {
	id string // "router", or the backend index as a string
	m  *promtext.Metrics
}

// writeFleetMetrics scrapes, merges, and writes the fleet exposition.
func (rt *Router) writeFleetMetrics(ctx context.Context, w http.ResponseWriter) error {
	type scrape struct {
		id   string
		text string
		err  error
	}
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		return err
	}
	scrapes := []scrape{{id: "router", text: sb.String()}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			text, err := b.scrapeMetrics(ctx)
			mu.Lock()
			scrapes = append(scrapes, scrape{id: b.indexStr, text: text, err: err})
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	// Stable source order: the router first, then backends by index.
	sort.Slice(scrapes, func(i, j int) bool { return sourceRank(scrapes[i].id) < sourceRank(scrapes[j].id) })

	var comments []string
	var sources []fleetSource
	for _, s := range scrapes {
		if s.err != nil {
			comments = append(comments, fmt.Sprintf("# fleet: backend %s unavailable: %s", s.id, sanitizeComment(s.err.Error())))
			continue
		}
		m, err := promtext.Parse(s.text)
		if err != nil {
			comments = append(comments, fmt.Sprintf("# fleet: backend %s exposition unparseable: %s", s.id, sanitizeComment(err.Error())))
			continue
		}
		sources = append(sources, fleetSource{id: s.id, m: m})
	}

	// Union of declared families; a family declared with different
	// types by different sources cannot be merged meaningfully.
	types := make(map[string]string)
	conflicts := make(map[string]bool)
	for _, src := range sources {
		for fam, typ := range src.m.Types {
			if prev, ok := types[fam]; ok && prev != typ {
				conflicts[fam] = true
				continue
			}
			types[fam] = typ
		}
	}
	fams := make([]string, 0, len(types))
	for fam := range types {
		fams = append(fams, fam)
	}
	sort.Strings(fams)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		fmt.Fprintln(bw, c)
	}
	for _, fam := range fams {
		if conflicts[fam] {
			fmt.Fprintf(bw, "# fleet: family %s has conflicting types across sources; skipped\n", fam)
			continue
		}
		switch typ := types[fam]; typ {
		case "counter", "gauge", "untyped":
			writeFleetScalar(bw, fam, typ, sources)
		case "histogram":
			writeFleetHistogram(bw, fam, sources)
		default:
			fmt.Fprintf(bw, "# fleet: family %s has unsupported type %s; skipped\n", fam, typ)
		}
	}
	return bw.Flush()
}

// sourceRank orders fleet sources: router, then backends by index.
func sourceRank(id string) int {
	if id == "router" {
		return -1
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return math.MaxInt
	}
	return n
}

// sanitizeComment keeps a scrape error single-line for the exposition.
func sanitizeComment(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	return strings.ReplaceAll(s, "\r", " ")
}

// fnum renders a merged value: integral values (every instrument in
// this codebase emits integers) print without an exponent.
func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeFleetScalar merges one counter/gauge/untyped family. The
// aggregate is a sum, except gauge high-water marks (*_high) take the
// max.
func writeFleetScalar(w *bufio.Writer, fam, typ string, sources []fleetSource) {
	type sv struct {
		id string
		v  float64
	}
	var vals []sv
	for _, src := range sources {
		if v, ok := src.m.Get(fam); ok {
			vals = append(vals, sv{src.id, v})
		}
	}
	if len(vals) == 0 {
		return
	}
	agg := vals[0].v
	for _, v := range vals[1:] {
		if typ == "gauge" && strings.HasSuffix(fam, "_high") {
			agg = math.Max(agg, v.v)
		} else {
			agg += v.v
		}
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
	fmt.Fprintf(w, "%s %s\n", fam, fnum(agg))
	for _, v := range vals {
		fmt.Fprintf(w, "%s{backend=%q} %s\n", fam, v.id, fnum(v.v))
	}
}

// writeFleetHistogram merges one histogram family bucket-wise. Each
// source's cumulative buckets convert to per-bound deltas; deltas sum
// over the union of bounds and re-cumulate into the aggregate series.
// All sources bucket on the shared power-of-two grid, so a bound one
// source omits (sparse exposition) is a genuine zero delta there and
// the merge is exact.
func writeFleetHistogram(w *bufio.Writer, fam string, sources []fleetSource) {
	type sh struct {
		id         string
		buckets    []promtext.Sample // cumulative, sorted by bound
		sum, count float64
	}
	var vals []sh
	deltas := make(map[float64]float64)
	boundLabel := make(map[float64]string)
	var aggSum, aggCount float64
	for _, src := range sources {
		buckets := src.m.Buckets(fam)
		if len(buckets) == 0 {
			continue
		}
		s, _ := src.m.Get(fam + "_sum")
		c, _ := src.m.Get(fam + "_count")
		vals = append(vals, sh{src.id, buckets, s, c})
		aggSum += s
		aggCount += c
		prev := 0.0
		for _, b := range buckets {
			le := b.Labels["le"]
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			deltas[bound] += b.Value - prev
			if _, ok := boundLabel[bound]; !ok {
				boundLabel[bound] = le
			}
			prev = b.Value
		}
	}
	if len(vals) == 0 {
		return
	}
	bounds := make([]float64, 0, len(deltas))
	for b := range deltas {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
	cum := 0.0
	for _, b := range bounds {
		cum += deltas[b]
		fmt.Fprintf(w, "%s_bucket{le=%q} %s\n", fam, boundLabel[b], fnum(cum))
	}
	fmt.Fprintf(w, "%s_sum %s\n%s_count %s\n", fam, fnum(aggSum), fam, fnum(aggCount))
	for _, v := range vals {
		for _, b := range v.buckets {
			fmt.Fprintf(w, "%s_bucket{backend=%q,le=%q} %s\n", fam, v.id, b.Labels["le"], fnum(b.Value))
		}
		fmt.Fprintf(w, "%s_sum{backend=%q} %s\n", fam, v.id, fnum(v.sum))
		fmt.Fprintf(w, "%s_count{backend=%q} %s\n", fam, v.id, fnum(v.count))
	}
}
