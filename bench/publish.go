package main

import (
	"fmt"
	"os"
	"time"
)

// publishWorkload publishes a finished study's revocations as ribbon
// filter cascades, monolithic and per issuer, one epoch per study day,
// and then does what a client does with them: applies every daily
// delta, catches up through one compacted delta, installs the shards of
// the issuers it trusts.
type publishWorkload struct {
	e     *env
	scale float64
	lat   *latency
	world *publishWorld
	last  *published
}

func newPublish(e *env) instance {
	p := &publishWorkload{e: e, scale: 0.0005, lat: newLatency(1)}
	if e.tiny {
		p.scale = 0.0002
	}
	return p
}

func (p *publishWorkload) latency() *latency { return p.lat }

func (p *publishWorkload) close() error {
	if p.world == nil {
		return nil
	}
	return p.world.close()
}

// setUp builds the world three times and reports the median build.
func (p *publishWorkload) setUp() (float64, error) {
	builds := 3
	if p.e.tiny {
		builds = 1
	}
	var times []float64
	for i := 0; i < builds; i++ {
		if p.world != nil {
			if err := p.world.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		w, err := newPublishWorld(nil, p.scale, p.e.seed)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		p.world = w
	}
	return median(times), nil
}

func (p *publishWorkload) unit(ln *lane) (ops, failed int64, err error) {
	p.last, ops, failed, err = p.world.publish(ln, p.lat)
	return ops, failed, err
}

// check audits the last repetition's artifacts against the world's
// ground truth: no false positive, no false negative, nothing missed.
func (p *publishWorkload) check() (ops, failed int64, err error) {
	fp, fn, missed, err := p.world.audit(nil, p.last)
	if err != nil {
		return 0, 0, err
	}
	if fp+fn+missed != 0 {
		fmt.Fprintf(os.Stderr, "publish: audit found %d false positives, %d false negatives, %d missed\n", fp, fn, missed)
		return 2, 2, nil
	}
	return 2, 0, nil
}

func (p *publishWorkload) probes(ln *lane) (map[string]float64, error) {
	m, err := p.world.publishProbes(ln, p.last)
	if err != nil {
		return nil, err
	}
	m["cascade.known_passes"] = float64(p.last.knownPasses)
	m["cascade.known_keys_visited"] = float64(p.last.knownKeys)
	m["cascade.epoch_p50_ms"] = quantile(p.last.epochMS, 0.50)
	m["cascade.epoch_p90_ms"] = quantile(p.last.epochMS, 0.90)
	m["cascade.epoch_max_ms"] = quantile(p.last.epochMS, 1)
	return m, nil
}

func (p *publishWorkload) derive(st *spanStats, m map[string]float64) {
	mean := func(name string) float64 {
		total, n := st.total(name)
		if n == 0 {
			return 0
		}
		return total / float64(len(st.durations("publish.unit")))
	}
	m["workload.feed_s"] = mean("workload.World.CascadeFeedFullStudy")
	m["cascade.publish_mono_s"] = mean("cascade.publish_mono")
	m["cascade.publish_sharded_s"] = mean("cascade.publish_sharded")
	m["cascade.apply_chain_ms"] = mean("cascade.Apply") * 1e3
	m["cascade.compact_ms"] = mean("cascade.Compact") * 1e3
}
