package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pond"
	"pond/internal/serve"
)

// daemon is one in-process pondserve instance on a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startDaemon builds a server from statePath (restoring any runs in it)
// and serves its handler on 127.0.0.1.
func startDaemon(statePath string) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		StatePath: statePath,
		Log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	return listen(srv)
}

func listen(srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Park()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // always http.ErrServerClosed, after close
	}()
	return d, nil
}

// close stops the listener and waits for the serving goroutine; the
// caller parks the server first so attached event streams end.
func (d *daemon) close() {
	_ = d.http.Close()
	<-d.done
}

// client is one HTTP connection's worth of client: the harness keeps at
// most one for the event stream and one for control requests.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// call sends one control request and decodes a JSON response,
// returning an error for any non-2xx status.
func call(c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// stream reads /runs/r1/events from seq onwards into log until the
// server ends the stream, then reports the next seq and when the last
// event arrived.
type stream struct {
	next  int
	lines int
	log   strings.Builder
	last  time.Time
	err   error
	done  chan struct{}
}

func (s *stream) follow(c *http.Client, base string) {
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		resp, err := c.Get(base + "/runs/r1/events?from=" + strconv.Itoa(s.next))
		if err != nil {
			s.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.err = fmt.Errorf("events stream: %s", resp.Status)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var e serve.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				s.err = err
				return
			}
			if e.Seq != s.next {
				s.err = fmt.Errorf("event seq %d, want %d", e.Seq, s.next)
				return
			}
			s.next++
			s.lines++
			s.log.WriteString(e.Line)
			s.log.WriteByte('\n')
			s.last = time.Now()
		}
		s.err = sc.Err()
	}()
}

func (s *stream) wait() error {
	<-s.done
	return s.err
}

// startRequest is the POST /runs body.
type startRequest struct {
	Opts      pond.FleetOpts `json:"opts"`
	HoldAtSec []float64      `json:"hold_at_sec"`
}

// restartRep is one daemon run: POST /runs with holds, the event log
// streamed live on one connection, and at each hold Park, Checkpoint, a
// fresh serve.New from the state file and a resume on the other. The
// reassembled stream must hash to the served report's hash and to the
// uninterrupted batch run's.
func (b *bench) restartRep(ctx context.Context, opts pond.FleetOpts, traced bool) {
	state := filepath.Join(b.workdir, "state.json")
	// Each rep starts a fresh daemon; a state file left by the previous
	// rep would restore its finished run. Most often there is none.
	_ = os.Remove(state)
	var tr *tracer
	var prof bytes.Buffer
	var files [][]byte
	profiling := false
	if traced {
		tr = newTracer()
		profiling = b.g.op(pprof.StartCPUProfile(&prof), "cpu profile")
		defer func() {
			if profiling {
				pprof.StopCPUProfile()
			}
		}()
	}
	var heap peakHeap
	var ckpt, restore, size byHold
	phases := map[string]float64{}
	ctl, sc := client(), client()
	defer ctl.CloseIdleConnections()
	defer sc.CloseIdleConnections()

	runtime.GC()
	d, err := startDaemon(state)
	if !b.g.op(err, "serve.New") {
		return
	}
	var st stream
	defer func() {
		if d != nil {
			d.srv.Park()
			d.close()
		}
		// Parking closes the event stream, so its reader exits.
		if st.done != nil {
			<-st.done
		}
	}()

	root := tr.begin("run")
	a0 := heapAllocs()
	t0 := time.Now()
	sp := tr.begin("serve.start")
	err = call(ctl, "POST", d.url+"/runs", startRequest{Opts: opts, HoldAtSec: b.w.holds}, nil)
	tr.end(sp)
	if !b.g.op(err, "POST /runs") {
		return
	}
	setup := time.Since(t0)
	st.follow(sc, d.url)

	for hold := range b.w.holds {
		if !b.g.op(waitState(ctl, d.url, serve.StateHolding), "wait for hold") {
			return
		}
		heap.sample()
		if traced {
			b.g.op(scrapePhases(ctl, d.url, phases), "GET /metrics")
		}
		cycle := tr.begin("restart_cycle")
		t := time.Now()
		sp := tr.begin("serve.park")
		d.srv.Park()
		tr.end(sp)
		sp = tr.begin("serve.checkpoint_write")
		err := d.srv.Checkpoint()
		tr.end(sp)
		ckpt.add(hold, time.Since(t).Seconds())
		d.close()
		if !b.g.op(err, "Checkpoint") || !b.g.op(st.wait(), "events stream") {
			return
		}
		if fi, err := os.Stat(state); b.g.op(err, "stat state file") {
			size.add(hold, mb(uint64(fi.Size())))
		}
		if traced {
			data, err := os.ReadFile(state)
			if b.g.op(err, "read state file") {
				files = append(files, data)
			}
		}

		heap.settle()
		t = time.Now()
		sp = tr.begin("serve.new")
		d, err = startDaemon(state)
		tr.end(sp)
		restore.add(hold, time.Since(t).Seconds())
		tr.end(cycle)
		if !b.g.op(err, "serve.New from checkpoint") {
			return
		}
		heap.sample()
		st.follow(sc, d.url)
		if !b.g.op(call(ctl, "POST", d.url+"/runs/r1/resume", nil, nil), "POST resume") {
			return
		}
	}
	if !b.g.op(st.wait(), "events stream") {
		return
	}
	// The forced collections at the holds are the harness's, not the
	// daemon's: leave them out of the run's wall time.
	wall := st.last.Sub(t0) - heap.spent
	allocs := heapAllocs() - a0
	tr.end(root)
	var snap serve.Snapshot
	if !b.g.op(call(ctl, "GET", d.url+"/runs/r1", nil, &snap), "GET /runs/r1") {
		return
	}
	if traced {
		b.g.op(scrapePhases(ctl, d.url, phases), "GET /metrics")
		if profiling {
			pprof.StopCPUProfile()
			profiling = false
			b.addProfile(prof.Bytes())
		}
	}
	heap.sample()
	if !b.g.check(snap.State == serve.StateDone && snap.Report != nil, "run ended %s, not done: %s", snap.State, snap.Error) {
		return
	}
	log := st.log.String()
	b.checkRun(snap.Report.LogSHA256, pond.EventLogSHA256(log, opts.Cluster.Cells), map[string]float64{
		"count.arrivals":   float64(snap.Progress.Arrivals),
		"count.placed":     float64(snap.Progress.Placed),
		"count.events":     float64(st.lines),
		"count.log_bytes":  float64(len(log)),
		"count.retrains":   float64(snap.Report.Retrains),
		"count.promotions": float64(snap.Report.Promotions),
		"count.fallbacks":  float64(snap.Progress.Fallbacks),
	})
	vps := float64(snap.Progress.Arrivals) / wall.Seconds()
	switch {
	case traced:
		b.traceVPS = append(b.traceVPS, vps)
		tot := tr.totals()
		b.layer("fleet.start_s", tot["serve.start"])
		b.layer("fleet.advance_s", phases["advance"])
		b.layer("fleet.retrain_s", phases["retrain"])
		b.layer("fleet.plan_s", phases["plan"])
		b.layer("fleet.finish_s", phases["finish"])
		b.layer("run_s", wall.Seconds())
		b.layer("restart_cycle_s", tot["restart_cycle"])
		b.layer("trace.unattributed_s", tr.selfTotal("run"))
		for _, name := range []string{"serve.park", "serve.checkpoint_write", "serve.new"} {
			for _, s := range tr.spans {
				if s.name == name {
					b.layer(name+"_s", (s.end - s.start).Seconds())
				}
			}
		}
		for _, f := range files {
			b.replay(ctx, f, true)
		}
	case b.traced:
		b.untracedVPS = append(b.untracedVPS, vps)
	default:
		b.setup = append(b.setup, setup.Seconds())
		b.vps = append(b.vps, vps)
		b.allocsPerVM = append(b.allocsPerVM, float64(allocs)/float64(snap.Progress.Arrivals))
		b.heapMB = append(b.heapMB, mb(heap.peak))
		b.ckpt.merge(ckpt)
		b.restore.merge(restore)
		b.ckptMB.merge(size)
	}
}

// waitState polls GET /runs/r1 until the run reaches want; a terminal
// state other than want is an error.
func waitState(c *http.Client, base, want string) error {
	for {
		var snap serve.Snapshot
		if err := call(c, "GET", base+"/runs/r1", nil, &snap); err != nil {
			return err
		}
		switch snap.State {
		case want:
			return nil
		case serve.StateDone, serve.StateFailed, serve.StateParked:
			return fmt.Errorf("run is %s waiting for %s: %s", snap.State, want, snap.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrapePhases adds the server's cumulative engine phase seconds
// (pond_phase_seconds_sum{phase="..."} on GET /metrics) into phases.
// Each server instance counts from zero, so scraping every instance
// just before it parks sums the whole run.
func scrapePhases(c *http.Client, base string, phases map[string]float64) error {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `pond_phase_seconds_sum{phase="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		phases[name] += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !found {
		return errors.New("GET /metrics: no pond_phase_seconds_sum series")
	}
	return nil
}
