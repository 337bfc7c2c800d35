package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
)

const (
	floodBurst   = 256              // messages per closed-loop write on flood-table
	warmBurst    = 4096             // messages per set-up warm-up write
	pacedRate    = 200000           // paced-tor offered background updates/s
	pacedTick    = time.Millisecond // paced-tor background burst spacing
	pollInterval = 2 * time.Millisecond
	// longPollWait is sent as /alerts?wait=; the daemon at this commit
	// ignores it and the client falls back to polling every pollInterval.
	longPollWait = "100ms"
	settleWindow = 3 * time.Second
	drainTimeout = 60 * time.Second
	// maxLateP99 is the generator lateness above which a paced run is
	// invalid: the generator, not the daemon, set the schedule.
	maxLateP99 = 50 * time.Millisecond
)

// trafficConfig parameterises one traffic run: phases daemons, each set
// up and then measured for phase.
type trafficConfig struct {
	workload       string
	seed           int64
	phase          time.Duration
	tracerInterval time.Duration
	phases         int
	daemonBin      string
	workDir        string        // watch file and daemon logs
	rec            *recorder     // nil on the plain run
	sampleEvery    time.Duration // 0: sample only at the phase's start and end
}

// tracerRec is the life of one tracer hijack, Unix nanoseconds.
type tracerRec struct {
	due, writeStart, writeEnd int64
	alertAt, seen             int64 // zero until the client sees its alert
	poll                      int64 // span of the /alerts call that delivered it
}

// sample is one periodic reading of the daemon during the phase.
type sample struct {
	t   time.Time
	m   promSample
	cpu float64
}

// phaseResult is everything measured on one daemon of a traffic run.
type phaseResult struct {
	in        *inputs
	specs     []tracerSpec // this phase's share of in.tracers
	setupS    float64
	elapsed   time.Duration // timed phase, first to last sample
	bgSent    int           // background updates sent in the phase
	totalSent int           // every update sent to the daemon
	tracers   []tracerRec
	lateMS    []float64
	blocked   time.Duration // writer time inside SendRaw during the phase

	mu                sync.Mutex // orders the poller's writes to tracers against allSeen
	polls, emptyPolls int
	pollMS            []float64
	unexpected        []string

	samples  []sample // phase start .. phase end
	final    promSample
	peakRSS  float64
	ctxDelta uint64

	failedChecks []string
}

// alertsReply is the /alerts payload.
type alertsReply struct {
	Alerts []struct {
		Time       time.Time `json:"time"`
		Prefix     string    `json:"prefix"`
		Kind       string    `json:"kind"`
		ObservedAS uint32    `json:"observed_as"`
	} `json:"alerts"`
	Next uint64 `json:"next"`
}

type tracerKey struct {
	prefix netip.Prefix
	origin bgp.ASN
}

// runTraffic sets up and measures cfg.phases daemons in turn, each with
// its own share of the tracers. It returns the inputs, the phases, and
// any breach of the generator's budget.
func runTraffic(cfg trafficConfig) (*inputs, []*phaseResult, []string, error) {
	n := int(cfg.phase / cfg.tracerInterval)
	in, err := buildInputs(cfg.workload, cfg.seed, n*cfg.phases)
	if err != nil {
		return nil, nil, nil, err
	}
	watchFile := filepath.Join(cfg.workDir, fmt.Sprintf("watch-%d.txt", cfg.seed))
	if err := writeWatchFile(watchFile, in.watchList, in.watched); err != nil {
		return nil, nil, nil, err
	}
	var phases []*phaseResult
	var invalid []string
	for k := 0; k < cfg.phases; k++ {
		res := &phaseResult{in: in, specs: in.tracers[k*n : (k+1)*n], tracers: make([]tracerRec, n)}
		logFile := filepath.Join(cfg.workDir, fmt.Sprintf("serve-%s-%d-%d.log", cfg.workload, cfg.seed, k))
		conns, err := res.run(cfg, watchFile, logFile)
		if err != nil {
			return nil, nil, nil, err
		}
		if conns != 1 {
			invalid = append(invalid, fmt.Sprintf("%d HTTP connections to daemon %d, budget 1", conns, k))
		}
		phases = append(phases, res)
	}
	if p := runtime.GOMAXPROCS(0); p > runtime.NumCPU() {
		invalid = append(invalid, fmt.Sprintf("generator GOMAXPROCS %d exceeds nproc %d", p, runtime.NumCPU()))
	}
	return in, phases, invalid, nil
}

// run sets up one daemon, from launch until the warm-up table is
// ingested, measures it, and stops it. It returns how many HTTP
// connections the client opened.
func (res *phaseResult) run(cfg trafficConfig, watchFile, logFile string) (conns int64, err error) {
	in := res.in
	t0 := time.Now()
	d, err := startDaemon(cfg.daemonBin, watchFile, logFile)
	if err != nil {
		return 0, err
	}
	var sess *bgpd.Session
	defer func() {
		if sess != nil {
			sess.Close()
		}
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
	}()
	if sess, err = openSession(d.bgpAddr); err != nil {
		return 0, err
	}
	for lo := 0; lo < in.warmN; lo += warmBurst {
		hi := min(lo+warmBurst, in.warmN)
		if err := sess.SendRaw(in.span(lo, hi), hi-lo); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	if _, err := d.waitAccounted(float64(in.warmN), drainTimeout); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	res.setupS = time.Since(t0).Seconds()
	res.totalSent = in.warmN
	if err := res.measure(cfg, d, sess); err != nil {
		return 0, err
	}
	return d.dials.Load(), nil
}

// measure runs the timed phase on the set-up daemon, then drains it and
// checks its outputs.
func (res *phaseResult) measure(cfg trafficConfig, d *daemon, sess *bgpd.Session) error {
	index := make(map[tracerKey]int, len(res.specs))
	for i, t := range res.specs {
		index[tracerKey{t.prefix, t.origin}] = i
	}
	ctx0, err := ctxSwitches(d.pid())
	if err != nil {
		return err
	}
	first, err := res.takeSample(d)
	if err != nil {
		return err
	}
	res.samples = append(res.samples, first)
	t0 := first.t
	end := t0.Add(cfg.phase)
	// Tracers fall due mid-interval, and on paced-tor midway between two
	// background bursts.
	for i := range res.tracers {
		due := time.Duration(i)*cfg.tracerInterval + cfg.tracerInterval/2 + pacedTick/2
		res.tracers[i].due = t0.Add(due).UnixNano()
	}

	ctx, cancel := context.WithCancel(context.Background())
	pollDone := make(chan error, 1)
	go func() { pollDone <- res.poll(ctx, d, cfg.rec, index) }()
	pollStopped := false
	stopPoll := func() error {
		cancel()
		pollStopped = true
		return <-pollDone
	}
	defer func() {
		if !pollStopped {
			stopPoll()
		}
	}()
	sampleCtx, stopSampler := context.WithCancel(ctx)
	sampleDone := make(chan error, 1)
	if cfg.sampleEvery > 0 {
		go func() { sampleDone <- res.sampleLoop(sampleCtx, d, cfg.sampleEvery) }()
	} else {
		sampleDone <- nil
	}

	var werr error
	if cfg.workload == "flood-table" {
		werr = res.flood(sess, end, cfg.rec)
	} else {
		werr = res.paced(sess, t0, end, cfg.rec)
	}
	stopSampler()
	if err := errors.Join(werr, <-sampleDone); err != nil {
		return err
	}
	last, err := res.takeSample(d)
	if err != nil {
		return err
	}
	res.samples = append(res.samples, last)
	res.elapsed = last.t.Sub(t0)
	ctx1, err := ctxSwitches(d.pid())
	if err != nil {
		return err
	}
	res.ctxDelta = ctx1 - ctx0

	// Drain: every sent update is ingested or dropped under a named reason.
	if _, err := d.waitAccounted(float64(res.totalSent), drainTimeout); err != nil {
		res.failedChecks = append(res.failedChecks, "drain: "+err.Error())
	}
	// Settle: give in-flight tracers settleWindow to surface.
	deadline := time.Now().Add(settleWindow)
	for time.Now().Before(deadline) && !res.allSeen() {
		time.Sleep(pollInterval)
	}
	if err := stopPoll(); err != nil {
		return err
	}
	if len(res.unexpected) > 0 {
		res.failedChecks = append(res.failedChecks,
			fmt.Sprintf("%d alerts match no tracer, first %s", len(res.unexpected), res.unexpected[0]))
	}
	if res.final, err = d.scrape(); err != nil {
		return err
	}
	res.peakRSS, err = peakRSSMiB(fmt.Sprint(d.pid()))
	return err
}

func (res *phaseResult) takeSample(d *daemon) (sample, error) {
	m, err := d.scrape()
	if err != nil {
		return sample{}, err
	}
	t := time.Now()
	cpu, err := procCPUSeconds(d.pid())
	return sample{t: t, m: m, cpu: cpu}, err
}

// sampleLoop reads /metrics and the daemon's CPU time every period until
// ctx ends.
func (res *phaseResult) sampleLoop(ctx context.Context, d *daemon, period time.Duration) error {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		s, err := res.takeSample(d)
		if err != nil {
			return err
		}
		res.samples = append(res.samples, s)
	}
}

// allSeen reports whether every tracer's alert has reached the client.
func (res *phaseResult) allSeen() bool {
	res.mu.Lock()
	defer res.mu.Unlock()
	for i := range res.tracers {
		if res.tracers[i].seen == 0 {
			return false
		}
	}
	return true
}

// poll is the alert client: one keep-alive connection asking /alerts for
// everything past its cursor. An empty reply that came back before
// pollInterval elapsed is followed by a sleep to the next interval; a
// reply with alerts is followed by an immediate re-poll.
func (res *phaseResult) poll(ctx context.Context, d *daemon, rec *recorder, index map[tracerKey]int) error {
	var cursor uint64
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		start := time.Now()
		body, err := d.get(fmt.Sprintf("/alerts?since=%d&max=1000&wait=%s", cursor, longPollWait))
		seen := time.Now()
		if err != nil {
			return fmt.Errorf("alert poll: %w", err)
		}
		var r alertsReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("alert poll: %w", err)
		}
		cursor = r.Next
		res.polls++
		res.pollMS = append(res.pollMS, ms(seen.Sub(start)))
		pid := rec.addTimes("http.alerts", -1, 0, start, seen, map[string]any{"alerts": len(r.Alerts)})
		res.mu.Lock()
		for _, a := range r.Alerts {
			p, perr := netip.ParsePrefix(a.Prefix)
			i, ok := index[tracerKey{p, bgp.ASN(a.ObservedAS)}]
			if perr != nil || !ok || a.Kind != "origin-change" || res.tracers[i].seen != 0 {
				res.unexpected = append(res.unexpected, fmt.Sprintf("%s %s AS%d", a.Kind, a.Prefix, a.ObservedAS))
				continue
			}
			res.tracers[i].alertAt = a.Time.UnixNano()
			res.tracers[i].seen = seen.UnixNano()
			res.tracers[i].poll = pid
		}
		res.mu.Unlock()
		if len(r.Alerts) == 0 {
			res.emptyPolls++
			if wait := time.Until(start.Add(pollInterval)); wait > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(wait):
				}
			}
		}
	}
}

// sendTracer writes tracer i and records its write span.
func (res *phaseResult) sendTracer(sess *bgpd.Session, i int, rec *recorder) error {
	t := &res.tracers[i]
	start := time.Now()
	if err := sess.SendRaw(res.specs[i].msg, 1); err != nil {
		return err
	}
	stop := time.Now()
	t.writeStart, t.writeEnd = start.UnixNano(), stop.UnixNano()
	res.blocked += stop.Sub(start)
	res.lateMS = append(res.lateMS, float64(t.writeStart-t.due)/1e6)
	res.totalSent++
	rec.addTimes("tracer.write", int64(i), 0, start, stop, nil)
	return nil
}

// flood is the closed loop: background bursts are written back to back,
// each as soon as the previous write returns, cycling through the table
// with a new transit hop on every pass; tracers that fell due are
// written between bursts.
func (res *phaseResult) flood(sess *bgpd.Session, end time.Time, rec *recorder) error {
	in := res.in
	total := in.messages()
	pos, pass, next := 0, 1, 0
	in.setTransit(pass)
	for {
		now := time.Now()
		if !now.Before(end) {
			// Tracers that fell due while the last burst was written.
			for ; next < len(res.tracers); next++ {
				if err := res.sendTracer(sess, next, rec); err != nil {
					return err
				}
			}
			return nil
		}
		for next < len(res.tracers) && res.tracers[next].due <= now.UnixNano() {
			if err := res.sendTracer(sess, next, rec); err != nil {
				return err
			}
			next++
		}
		hi := min(pos+floodBurst, total)
		start := time.Now()
		if err := sess.SendRaw(in.span(pos, hi), hi-pos); err != nil {
			return err
		}
		stop := time.Now()
		res.blocked += stop.Sub(start)
		rec.addTimes("bg.burst", -1, 0, start, stop, map[string]any{"updates": hi - pos})
		res.bgSent += hi - pos
		res.totalSent += hi - pos
		if pos = hi; pos == total {
			pos, pass = 0, pass+1
			in.setTransit(pass)
		}
	}
}

// paced is the open loop: pacedRate background updates/s in bursts due
// every pacedTick, and tracers on their own schedule, each written at its
// due time or as soon after as the generator gets to it. Lateness is
// recorded for every scheduled write.
func (res *phaseResult) paced(sess *bgpd.Session, t0, end time.Time, rec *recorder) error {
	in := res.in
	total := in.messages()
	perTick := int(pacedRate * pacedTick / time.Second)
	pos := in.warmN // the warm-up pass was variant 0
	burst, next := 0, 0
	for {
		bgDue := t0.Add(time.Duration(burst) * pacedTick)
		due, tracer := bgDue, false
		if next < len(res.tracers) && res.tracers[next].due < bgDue.UnixNano() {
			due, tracer = time.Unix(0, res.tracers[next].due), true
		}
		if !due.Before(end) {
			return nil
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if tracer {
			if err := res.sendTracer(sess, next, rec); err != nil {
				return err
			}
			next++
			continue
		}
		start := time.Now()
		res.lateMS = append(res.lateMS, ms(start.Sub(bgDue)))
		for left := perTick; left > 0; {
			hi := min(pos+left, total)
			if err := sess.SendRaw(in.span(pos, hi), hi-pos); err != nil {
				return err
			}
			left -= hi - pos
			if pos = hi; pos == total {
				pos = 0
			}
		}
		stop := time.Now()
		res.blocked += stop.Sub(start)
		rec.addTimes("bg.burst", -1, 0, start, stop, map[string]any{"updates": perTick})
		res.bgSent += perTick
		res.totalSent += perTick
		burst++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
