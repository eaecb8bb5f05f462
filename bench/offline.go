package main

import (
	"fmt"
	"os"
	"time"
)

// offlineWorkload is the browser verdict layer used the other way from
// heartbleed: every verdict is answered by the installed per-issuer
// ribbon cascade, with no cache and no network. One repetition is one
// fleet run; one operation is one verdict.
type offlineWorkload struct {
	e     *env
	cfg   fleetConfig
	lat   *latency
	world *fleetWorld
	want  uint64
	have  bool
}

// pinnedOffline is the fleet digest of seed 1 at the benchmark's size.
const pinnedOffline = 0x1f57be6867074336

func newOffline(e *env) instance {
	o := &offlineWorkload{
		e:   e,
		cfg: fleetConfig{browsers: 16384, certs: 2048, evals: 192, seed: e.seed},
		lat: newLatency(e.procs),
	}
	if e.tiny {
		o.cfg.browsers, o.cfg.certs, o.cfg.evals = 256, 256, 16
	}
	return o
}

func (o *offlineWorkload) latency() *latency { return o.lat }

// setUp builds the fleet world three times and reports the median.
func (o *offlineWorkload) setUp() (float64, error) {
	builds := 3
	if o.e.tiny {
		builds = 1
	}
	var times []float64
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		w, err := newFleetWorld(nil, o.cfg)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		o.world = w
	}
	return median(times), nil
}

func (o *offlineWorkload) unit(ln *lane) (ops, failed int64, err error) {
	out, err := o.world.run(ln, pathShards, o.e.procs, o.lat, nil)
	if err != nil {
		return 0, 0, err
	}
	if !o.have {
		o.want, o.have = out.digest, true
		if o.e.seed == 1 && !o.e.tiny && o.want != pinnedOffline {
			return 0, 0, fmt.Errorf("seed 1 fleet digest %016x, pinned %016x", o.want, uint64(pinnedOffline))
		}
	}
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{out.netRequests == 0, fmt.Sprintf("%d network requests, want 0", out.netRequests)},
		{out.cascadeHits == out.verdicts, fmt.Sprintf("cascade answered %d of %d verdicts", out.cascadeHits, out.verdicts)},
		{out.digest == o.want, fmt.Sprintf("fleet digest %016x, first repetition had %016x", out.digest, o.want)},
	} {
		if !c.ok {
			failed++
			fmt.Fprintln(os.Stderr, "offline:", c.what)
		}
	}
	return out.verdicts, failed, nil
}

func (o *offlineWorkload) probes(ln *lane) (map[string]float64, error) {
	return o.world.offlineProbes(ln, o.e.procs)
}
