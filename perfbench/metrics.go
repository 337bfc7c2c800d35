package main

import (
	"fmt"
	"math"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
)

// latencyWindow is the span of tracer due times over which one alert
// latency p50 and p99 are taken: 1,000 tracers, so the p99 has ten
// samples beyond it.
const latencyWindow = 2 * time.Second

// units of every reported metric.
var units = map[string]string{
	"setup_s":           "s",
	"ingest_ups":        "updates/s",
	"cpu_us_per_update": "us",
	"alert_p50_ms":      "ms",
	"alert_p99_ms":      "ms",
	"peak_rss_mb":       "MiB",
	"study_s":           "s",
	"study_peak_rss_mb": "MiB",

	"gen.late_p99_ms":                   "ms",
	"gen.offered_ups":                   "updates/s",
	"gen.write_block_frac":              "ratio",
	"bgpd.wire_p50_ms":                  "ms",
	"bgpd.wire_p99_ms":                  "ms",
	"bgp.decode_ns_per_update":          "ns",
	"defense.observe_ns_per_update":     "ns",
	"monitord.read_p50_ms":              "ms",
	"monitord.read_p99_ms":              "ms",
	"monitord.read_batch_mean":          "count",
	"monitord.dispatch_p50_ms":          "ms",
	"monitord.dispatch_p99_ms":          "ms",
	"monitord.queue_depth_max":          "count",
	"monitord.apply_p99_us":             "us",
	"monitord.monitor_p99_us":           "us",
	"monitord.detect_p50_ms":            "ms",
	"monitord.detect_p99_ms":            "ms",
	"monitord.deliver_p50_ms":           "ms",
	"monitord.deliver_p99_ms":           "ms",
	"monitord.alerts_get_p50_ms":        "ms",
	"monitord.empty_poll_frac":          "ratio",
	"monitord.alerts_dropped":           "count",
	"monitord.updates_dropped":          "count",
	"monitord.ctx_switches_per_kupdate": "count",
	"monitord.rib_prefixes":             "count",
	"trace.unattributed_frac":           "ratio",
	"setup.daemon_s":                    "s",
	"setup.study_s":                     "s",
	"topology.generate_s":               "s",
	"topology.compile_s":                "s",
	"topology.compiled_bytes_per_as":    "bytes",
	"topology.route_s":                  "s",
	"topology.route_tables_per_s":       "1/s",
	"topology.table_bytes_per_as":       "bytes",
	"topology.delta_mean_ms":            "ms",
	"topology.delta_p95_ms":             "ms",
	"topology.delta_local_frac":         "ratio",
	"topology.alloc_mb":                 "MiB",
	"resilience.matrix_s":               "s",
	"resilience.tables_per_s":           "1/s",
	"resilience.alloc_mb":               "MiB",
	"par.busy_frac":                     "ratio",
	"study.gc_cycles":                   "count",
}

// metricsOf attaches units, refusing a value that was not measured.
func metricsOf(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		u, ok := units[k]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", k)
		}
		out[k] = metric{Value: v, Unit: u}
	}
	return out, nil
}

// phaseRates returns the daemon's ingest rate over its timed phase and
// its CPU time per ingested update, both from the first and last sample.
func phaseRates(ph *phaseResult) (ups, cpuUS float64) {
	const ing = "monitord_updates_ingested_total"
	first, last := ph.samples[0], ph.samples[len(ph.samples)-1]
	n := last.m[ing] - first.m[ing]
	return n / last.t.Sub(first.t).Seconds(), (last.cpu - first.cpu) * 1e6 / n
}

// latencies returns each detected tracer's due-to-seen, due-to-stamp
// (wire) and stamp-to-seen (deliver) times in ms.
func latencies(ph *phaseResult) (total, wire, deliver []float64) {
	for _, t := range ph.tracers {
		if t.seen == 0 {
			continue
		}
		total = append(total, float64(t.seen-t.due)/1e6)
		wire = append(wire, float64(t.alertAt-t.due)/1e6)
		deliver = append(deliver, float64(t.seen-t.alertAt)/1e6)
	}
	return total, wire, deliver
}

// latencyWindows returns the p50 and p99 alert latency (ms) of each
// latencyWindow of tracer due times in the phase.
func latencyWindows(ph *phaseResult) (p50, p99 []float64) {
	t0 := ph.samples[0].t.UnixNano()
	var win []float64
	flush := func() {
		if len(win) > 0 {
			p50 = append(p50, quantile(win, 0.5))
			p99 = append(p99, quantile(win, 0.99))
		}
		win = win[:0]
	}
	w := int64(-1)
	for _, t := range ph.tracers {
		if k := (t.due - t0) / int64(latencyWindow); k != w {
			flush()
			w = k
		}
		if t.seen != 0 {
			win = append(win, float64(t.seen-t.due)/1e6)
		}
	}
	flush()
	return p50, p99
}

// medianOver is the median of f over the phases.
func medianOver(phases []*phaseResult, f func(*phaseResult) float64) float64 {
	xs := make([]float64, len(phases))
	for i, ph := range phases {
		xs[i] = f(ph)
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics: rates, set-up time and peak
// RSS are medians over the measured daemons.
func endToEnd(phases []*phaseResult, st *studyResult) (map[string]metric, error) {
	var ups, cpu []float64
	for _, ph := range phases {
		u, c := phaseRates(ph)
		ups, cpu = append(ups, u), append(cpu, c)
	}
	return metricsOf(map[string]float64{
		"setup_s":           medianOver(phases, func(ph *phaseResult) float64 { return ph.setupS }) + median(st.SetupS),
		"ingest_ups":        median(ups),
		"cpu_us_per_update": median(cpu),
		"peak_rss_mb":       medianOver(phases, func(ph *phaseResult) float64 { return ph.peakRSS }),
		"study_s":           st.StudyS,
		"study_peak_rss_mb": st.PeakRSSMiB,
	})
}

// waterfall is the per-tracer decomposition of the traced run.
type waterfall struct {
	totalP50, wireP50, deliverP50, detectP50, getP50 float64
	residual                                         float64 // share of totalP50 unattributed
	failedChecks                                     []string
}

// daemonLayers computes the per-layer metrics one daemon's scrapes and
// process counters give, over its timed phase.
func daemonLayers(ph *phaseResult) map[string]float64 {
	first, last := ph.samples[0].m, ph.samples[len(ph.samples)-1].m
	q := func(name, labels string, p, scale float64) float64 {
		bs, _, _ := histDelta(first, last, name, labels)
		return histQuantile(bs, p) * scale
	}
	_, batchSum, batchCount := histDelta(first, last, "monitord_read_batch_size", "")
	depth := 0.0
	for _, s := range ph.samples {
		depth = math.Max(depth, s.m.sumPrefix("monitord_ingest_queue_depth{"))
	}
	ingested := last["monitord_updates_ingested_total"] - first["monitord_updates_ingested_total"]
	return map[string]float64{
		"gen.offered_ups":                   float64(ph.bgSent) / ph.elapsed.Seconds(),
		"gen.write_block_frac":              ph.blocked.Seconds() / ph.elapsed.Seconds(),
		"monitord.read_p50_ms":              q("monitord_stage_seconds", `stage="read"`, 0.5, 1e3),
		"monitord.read_p99_ms":              q("monitord_stage_seconds", `stage="read"`, 0.99, 1e3),
		"monitord.read_batch_mean":          batchSum / batchCount,
		"monitord.dispatch_p50_ms":          q("monitord_stage_seconds", `stage="dispatch"`, 0.5, 1e3),
		"monitord.dispatch_p99_ms":          q("monitord_stage_seconds", `stage="dispatch"`, 0.99, 1e3),
		"monitord.queue_depth_max":          depth,
		"monitord.apply_p99_us":             q("monitord_stage_seconds", `stage="apply"`, 0.99, 1e6),
		"monitord.monitor_p99_us":           q("monitord_stage_seconds", `stage="monitor"`, 0.99, 1e6),
		"monitord.detect_p50_ms":            q("monitord_detection_seconds", "", 0.5, 1e3),
		"monitord.detect_p99_ms":            q("monitord_detection_seconds", "", 0.99, 1e3),
		"monitord.alerts_dropped":           ph.final["monitord_alerts_dropped_total"],
		"monitord.updates_dropped":          ph.final.sumPrefix("monitord_updates_dropped_total"),
		"monitord.ctx_switches_per_kupdate": float64(ph.ctxDelta) / (ingested / 1000),
		"monitord.rib_prefixes":             ph.final["monitord_rib_prefixes"],
		"setup.daemon_s":                    ph.setupS,
	}
}

// alertLatency returns the alert latency p50 and p99 of the run: the
// lower quartile over the latency windows of every daemon. Stalls from
// outside the benchmark, such as CPU steal on a shared host, slow whole
// stretches of a run by milliseconds, so the calmer windows carry the
// daemon's own latency, while a change in the daemon moves every window.
func alertLatency(phases []*phaseResult) map[string]float64 {
	var p50, p99 []float64
	for _, ph := range phases {
		a, b := latencyWindows(ph)
		p50, p99 = append(p50, a...), append(p99, b...)
	}
	return map[string]float64{"alert_p50_ms": quantile(p50, 0.25), "alert_p99_ms": quantile(p99, 0.25)}
}

// perLayer computes the per-layer metrics: each daemon metric is the
// median over the measured daemons; tracer and poll metrics pool every
// daemon's tracers and polls.
func perLayer(phases []*phaseResult, st *studyResult) (map[string]metric, *waterfall, error) {
	vals := map[string]float64{}
	perDaemon := make([]map[string]float64, len(phases))
	for i, ph := range phases {
		perDaemon[i] = daemonLayers(ph)
	}
	for k := range perDaemon[0] {
		xs := make([]float64, len(phases))
		for i := range phases {
			xs[i] = perDaemon[i][k]
		}
		vals[k] = median(xs)
	}

	var total, wire, deliver, late, polls []float64
	pollCount, empty := 0, 0
	wf := &waterfall{}
	for _, ph := range phases {
		t, w, d := latencies(ph)
		total, wire, deliver = append(total, t...), append(wire, w...), append(deliver, d...)
		late = append(late, ph.lateMS...)
		polls = append(polls, ph.pollMS...)
		pollCount += ph.polls
		empty += ph.emptyPolls
		for i, t := range ph.tracers {
			if t.seen != 0 && (t.alertAt-t.due)+(t.seen-t.alertAt) != t.seen-t.due {
				wf.failedChecks = append(wf.failedChecks, fmt.Sprintf("tracer %v: wire + deliver != total", ph.specs[i].origin))
			}
		}
	}
	wf.totalP50, wf.wireP50, wf.deliverP50 = quantile(total, 0.5), quantile(wire, 0.5), quantile(deliver, 0.5)
	wf.detectP50, wf.getP50 = vals["monitord.detect_p50_ms"], median(polls)
	wf.residual = (wf.totalP50 - wf.wireP50 - wf.detectP50 - wf.getP50) / wf.totalP50

	decodeNS, observeNS, err := replays(phases[0].in)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range alertLatency(phases) {
		vals[k] = v
	}
	for k, v := range map[string]float64{
		"gen.late_p99_ms":                quantile(late, 0.99),
		"bgpd.wire_p50_ms":               wf.wireP50,
		"bgpd.wire_p99_ms":               quantile(wire, 0.99),
		"bgp.decode_ns_per_update":       decodeNS,
		"defense.observe_ns_per_update":  observeNS,
		"monitord.deliver_p50_ms":        wf.deliverP50,
		"monitord.deliver_p99_ms":        quantile(deliver, 0.99),
		"monitord.alerts_get_p50_ms":     wf.getP50,
		"monitord.empty_poll_frac":       float64(empty) / float64(pollCount),
		"trace.unattributed_frac":        wf.residual,
		"setup.study_s":                  median(st.SetupS),
		"topology.generate_s":            median(st.GenerateS),
		"topology.compile_s":             median(st.CompileS),
		"topology.compiled_bytes_per_as": st.CompiledBytesPerAS,
		"topology.route_s":               st.RouteS,
		"topology.route_tables_per_s":    studyDests / st.RouteS,
		"topology.table_bytes_per_as":    st.TableBytesPerAS,
		"topology.delta_mean_ms":         st.DeltaMeanMS,
		"topology.delta_p95_ms":          st.DeltaP95MS,
		"topology.delta_local_frac":      st.DeltaLocalFrac,
		"topology.alloc_mb":              st.TopoAllocMB,
		"resilience.matrix_s":            st.MatrixS,
		"resilience.tables_per_s":        float64(st.MatrixTables) / st.MatrixS,
		"resilience.alloc_mb":            st.ResilAllocMB,
		"par.busy_frac":                  st.ParBusyFrac,
		"study.gc_cycles":                st.GCCycles,
	} {
		vals[k] = v
	}
	m, err := metricsOf(vals)
	return m, wf, err
}

// replays times the workload's own background bytes through the BGP
// decoder and its decoded events through the §5 monitor, in this
// process: the per-update cost of two daemon layers without the rest.
func replays(in *inputs) (decodeNS, observeNS float64, err error) {
	mon, err := defense.NewMonitor(in.watched)
	if err != nil {
		return 0, 0, err
	}
	n := in.messages()
	events := make([]bgpsim.UpdateEvent, 0, min(n, replayUpdates))
	var u bgp.Update
	start := time.Now()
	for count := 0; count < replayUpdates; count++ {
		i := count % n
		if err := bgp.ParseUpdateInto(in.span(i, i+1), true, &u); err != nil {
			return 0, 0, fmt.Errorf("replay decode: %w", err)
		}
		if len(events) < cap(events) {
			events = append(events, bgpsim.UpdateEvent{Prefix: u.NLRI[0],
				Path: append([]bgp.ASN(nil), u.Attrs.ASPath.Segments[0].ASes...)})
		}
	}
	decodeNS = float64(time.Since(start).Nanoseconds()) / replayUpdates
	alerts := 0
	start = time.Now()
	for count := 0; count < replayUpdates; count++ {
		alerts += len(mon.Observe(&events[count%len(events)]))
	}
	observeNS = float64(time.Since(start).Nanoseconds()) / replayUpdates
	if alerts != 0 {
		return 0, 0, fmt.Errorf("replay: background updates raised %d alerts", alerts)
	}
	return decodeNS, observeNS, nil
}
