package faultnet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/simtime"
)

// testWorld wires a one-host simnet behind an injector.
func testWorld(t *testing.T, cfg Config) (*Injector, *simtime.Clock) {
	t.Helper()
	clock := simtime.NewClock(simtime.Date(2014, 10, 2))
	net := simnet.New()
	net.Register("resp.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("0123456789abcdef0123456789abcdef"))
	}))
	if cfg.Now == nil {
		cfg.Now = clock.Now
	}
	return New(net, cfg), clock
}

func get(t *testing.T, in *Injector, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in.RoundTrip(req)
}

func TestPassThroughWhenQuiet(t *testing.T) {
	in, _ := testWorld(t, Config{Seed: 1})
	resp, err := get(t, in, "http://resp.test/x")
	if err != nil {
		t.Fatalf("quiet injector failed request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 32 {
		t.Fatalf("body = %d bytes, want 32", len(body))
	}
	if st := in.Stats(); st.Kinds() != 0 || st.Requests != 1 {
		t.Fatalf("stats = %+v, want no injections, 1 request", st)
	}
}

func TestEachFaultKindToggleable(t *testing.T) {
	t.Run("conn-error", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, ConnErrorProb: 1})
		_, err := get(t, in, "http://resp.test/x")
		var fe *Error
		if !errors.As(err, &fe) || fe.Fault != FaultConnError || fe.Timeout() {
			t.Fatalf("err = %v, want non-timeout FaultConnError", err)
		}
	})
	t.Run("hang-with-budget", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, HangProb: 1})
		req, _ := http.NewRequest("GET", "http://resp.test/x", nil)
		req = req.WithContext(WithBudget(context.Background(), time.Second))
		start := time.Now()
		_, err := in.RoundTrip(req)
		var fe *Error
		if !errors.As(err, &fe) || fe.Fault != FaultHang || !fe.Timeout() {
			t.Fatalf("err = %v, want timeout FaultHang", err)
		}
		if time.Since(start) > 100*time.Millisecond {
			t.Fatal("hang with virtual budget must not sleep real time")
		}
	})
	t.Run("hang-with-deadline", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, HangProb: 1})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequest("GET", "http://resp.test/x", nil)
		_, err := in.RoundTrip(req.WithContext(ctx))
		var fe *Error
		if !errors.As(err, &fe) || !fe.Timeout() {
			t.Fatalf("err = %v, want timeout", err)
		}
	})
	t.Run("http-500", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, HTTP500Prob: 1})
		resp, err := get(t, in, "http://resp.test/x")
		if err != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("resp=%v err=%v, want synthesized 500", resp, err)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, TruncateProb: 1})
		resp, err := get(t, in, "http://resp.test/x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		if int64(len(body)) >= resp.ContentLength {
			t.Fatalf("body %d bytes not shorter than Content-Length %d", len(body), resp.ContentLength)
		}
		// The advertised length survives so io.ReadFull-style readers see
		// an unexpected EOF.
		buf := make([]byte, resp.ContentLength)
		copy(buf, body)
		if len(body) == int(resp.ContentLength) {
			t.Fatal("truncation removed nothing")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, CorruptProb: 1})
		resp, err := get(t, in, "http://resp.test/x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		if string(body) == "0123456789abcdef0123456789abcdef" {
			t.Fatal("corrupt fault left body unchanged")
		}
		if len(body) != 32 {
			t.Fatalf("corruption changed length: %d", len(body))
		}
	})
	t.Run("latency-over-budget", func(t *testing.T) {
		in, _ := testWorld(t, Config{Seed: 7, LatencyMean: time.Hour})
		req, _ := http.NewRequest("GET", "http://resp.test/x", nil)
		req = req.WithContext(WithBudget(context.Background(), time.Nanosecond))
		_, err := in.RoundTrip(req)
		var fe *Error
		if !errors.As(err, &fe) || fe.Fault != FaultLatency || !fe.Timeout() {
			t.Fatalf("err = %v, want timeout FaultLatency", err)
		}
	})
}

func TestDeterministicSchedule(t *testing.T) {
	run := func(seed uint64) Stats {
		in, clock := testWorld(t, Config{
			Seed:          seed,
			ConnErrorProb: 0.2,
			HTTP500Prob:   0.2,
			TruncateProb:  0.2,
			CorruptProb:   0.2,
		})
		for day := 0; day < 5; day++ {
			for i := 0; i < 40; i++ {
				if resp, err := get(t, in, "http://resp.test/crl/"+string(rune('a'+i%7))); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			clock.Advance(24 * time.Hour)
		}
		return in.Stats()
	}
	a, b := run(42), run(42)
	if a.Digest != b.Digest || a.Digest == 0 {
		t.Fatalf("same seed digests differ (or empty): %x vs %x", a.Digest, b.Digest)
	}
	for k, v := range a.Injected {
		if b.Injected[k] != v {
			t.Fatalf("fault %v count %d vs %d for same seed", k, v, b.Injected[k])
		}
	}
	if c := run(43); c.Digest == a.Digest {
		t.Fatalf("different seeds produced identical digest %x", a.Digest)
	}
}

func TestOutageScheduleFlapsDeterministically(t *testing.T) {
	cfg := Config{Seed: 9, Availability: 0.5, OutagePeriod: time.Hour}
	in1, _ := testWorld(t, cfg)
	in2, _ := testWorld(t, cfg)
	base := simtime.Date(2014, 10, 2)
	downs, transitions := 0, 0
	prev := false
	const samples = 24 * 60 // minute-resolution over a day
	for i := 0; i < samples; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		d1 := in1.DownAt("resp.test", at)
		if d2 := in2.DownAt("resp.test", at); d1 != d2 {
			t.Fatalf("schedule diverged at %v", at)
		}
		if d1 {
			downs++
		}
		if i > 0 && d1 != prev {
			transitions++
		}
		prev = d1
	}
	frac := float64(downs) / samples
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("down fraction %.2f, want ~0.5", frac)
	}
	if transitions < 10 {
		t.Fatalf("only %d up/down transitions in a day; schedule is not flapping", transitions)
	}
	// Distinct hosts get distinct offsets (almost surely).
	diff := false
	for i := 0; i < samples; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		if in1.DownAt("resp.test", at) != in1.DownAt("other.test", at) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two hosts share an identical outage schedule")
	}
}

func TestForceFaultAndEnable(t *testing.T) {
	in, _ := testWorld(t, Config{Seed: 1})
	in.ForceFault("resp.test", FaultConnError)
	if _, err := get(t, in, "http://resp.test/x"); err == nil {
		t.Fatal("forced fault did not fire")
	}
	in.SetEnabled(false)
	if _, err := get(t, in, "http://resp.test/x"); err != nil {
		t.Fatalf("disabled injector still failed: %v", err)
	}
	in.SetEnabled(true)
	in.ClearFault("resp.test")
	if _, err := get(t, in, "http://resp.test/x"); err != nil {
		t.Fatalf("cleared fault still fired: %v", err)
	}
}

func TestScopeRestrictsHosts(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2014, 10, 2))
	net := simnet.New()
	for _, h := range []string{"a.test", "b.test"} {
		net.Register(h, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}))
	}
	in := New(net, Config{Seed: 3, Now: clock.Now, ConnErrorProb: 1, Hosts: []string{"a.test"}})
	if _, err := get(t, in, "http://a.test/"); err == nil {
		t.Fatal("in-scope host was not faulted")
	}
	if _, err := get(t, in, "http://b.test/"); err != nil {
		t.Fatalf("out-of-scope host was faulted: %v", err)
	}
}

func TestBudgetHelpers(t *testing.T) {
	if _, ok := budgetFrom(context.Background()); ok {
		t.Fatal("empty context has a budget")
	}
	ctx := WithBudget(context.Background(), 3*time.Second)
	if d, ok := budgetFrom(ctx); !ok || d != 3*time.Second {
		t.Fatalf("budget = %v, %v", d, ok)
	}
}
