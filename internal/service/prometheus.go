package service

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"tpq/internal/hdr"
	"tpq/internal/trace"
)

// PrometheusContentType is the content type of the text exposition
// format rendered by WritePrometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the service counters, gauges and histograms in
// the Prometheus text exposition format (version 0.0.4) — hand-rolled,
// because pulling in a client library for a few dozen metric families is
// not worth a dependency. The counters and gauges are the metric-tagged
// fields of one Stats snapshot, in declaration order (see Snapshot); the
// request and per-phase duration histograms follow. Every family is
// always present (store gauges and histograms included, at zero), so
// dashboards and the /metrics acceptance check never see a family appear
// late.
func (s *Service) WritePrometheus(w io.Writer) {
	writeSeries(w, reflect.ValueOf(s.Stats()), "")
	writeHistogram(w, "tpq_request_duration_seconds",
		"End-to-end Minimize latency (cache hits included).", "", s.stats.lat)
	help := "Time spent per pipeline phase (chase/cim/compact nest inside acim)."
	for _, p := range trace.Phases() {
		writeHistogram(w, "tpq_phase_duration_seconds", help, fmt.Sprintf("phase=%q", p), s.stats.phase[p])
		help = "" // one header per family
	}
}

// writeSeries writes one sample per metric-tagged field of the struct v,
// heading each family with its HELP and TYPE lines, and recursing into
// struct pointers (a nil one renders its series at zero). family is the
// family of the last series written; it is returned updated, so a
// label-only tag can join the family of the field before it.
func writeSeries(w io.Writer, v reflect.Value, family string) string {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			if fv.IsNil() {
				fv = reflect.New(f.Type.Elem())
			}
			family = writeSeries(w, fv.Elem(), family)
			continue
		}
		series, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		if strings.HasPrefix(series, "{") {
			series = family + series
		} else {
			family, _, _ = strings.Cut(series, "{")
			kind := "gauge"
			if strings.HasSuffix(family, "_total") {
				kind = "counter"
			}
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, f.Tag.Get("help"), family, kind)
		}
		if fv.CanInt() {
			fmt.Fprintf(w, "%s %d\n", series, fv.Int())
		} else {
			fmt.Fprintf(w, "%s %s\n", series, strconv.FormatFloat(fv.Float(), 'g', -1, 64))
		}
	}
	return family
}

// writeHistogram renders one histogram family in the exposition format:
// cumulative buckets over the shared log-linear sub-millisecond bounds,
// then sum and count. help == "" suppresses the HELP/TYPE header (for
// the later series of a labeled family); labels ("phase=\"cim\"") are
// merged with the le label.
func writeHistogram(w io.Writer, name, help, labels string, h *hdr.Histogram) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	counts, total, sumNanos := h.Counts(), h.Count(), h.Sum().Nanoseconds()
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	bounds := h.Bounds()
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64), cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels,
			strconv.FormatFloat(float64(sumNanos)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, total)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name,
			strconv.FormatFloat(float64(sumNanos)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	}
}

// metricsHandler serves WritePrometheus over HTTP.
func (s *Service) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", PrometheusContentType)
	s.WritePrometheus(w)
}
