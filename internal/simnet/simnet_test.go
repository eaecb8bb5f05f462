package simnet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

func helloHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
}

func TestRoutingByHost(t *testing.T) {
	n := New()
	n.Register("crl.a.test", helloHandler("alpha"))
	n.Register("crl.b.test", helloHandler("beta"))
	client := n.Client()

	for host, want := range map[string]string{"crl.a.test": "alpha", "crl.b.test": "beta"} {
		resp, err := client.Get("http://" + host + "/x.crl")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != want {
			t.Errorf("%s body = %q", host, body)
		}
	}
}

func TestUnknownHostIsNXDomain(t *testing.T) {
	n := New()
	_, err := n.Client().Get("http://nowhere.test/")
	if err == nil {
		t.Fatal("unknown host resolved")
	}
	var he *HostError
	if !errors.As(err, &he) || he.Mode != FailNXDomain {
		t.Fatalf("error = %v", err)
	}
}

func TestFailureInjection(t *testing.T) {
	n := New()
	n.Register("ocsp.test", helloHandler("ok"))
	n.SetFailure("ocsp.test", FailUnresponsive)
	_, err := n.Client().Get("http://ocsp.test/")
	var he *HostError
	if !errors.As(err, &he) || he.Mode != FailUnresponsive {
		t.Fatalf("error = %v", err)
	}
	n.SetFailure("ocsp.test", FailNone)
	resp, err := n.Client().Get("http://ocsp.test/")
	if err != nil {
		t.Fatalf("after clearing failure: %v", err)
	}
	resp.Body.Close()
}

func TestHandlerStatusCodesPassThrough(t *testing.T) {
	n := New()
	n.Register("crl.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	resp, err := n.Client().Get("http://crl.test/missing.crl")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestStatsAccounting(t *testing.T) {
	n := New()
	n.Cost = CostModel{RTT: 100 * time.Millisecond, Bandwidth: 1000} // 1 KB/s
	n.Register("big.test", helloHandler(string(make([]byte, 500))))
	client := n.Client()
	for i := 0; i < 3; i++ {
		resp, err := client.Get("http://big.test/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	total := n.TotalStats()
	if total.Requests != 3 || total.BytesReceived != 1500 {
		t.Errorf("total = %+v", total)
	}
	// Each request: 100ms RTT + 500B at 1000 B/s = 600ms; three = 1.8s.
	if total.ModelledTime != 1800*time.Millisecond {
		t.Errorf("modelled time = %v", total.ModelledTime)
	}
	n.ResetStats()
	if n.TotalStats().Requests != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestServiceTimeCapture(t *testing.T) {
	n := New()
	n.Cost = CostModel{RTT: 100 * time.Millisecond, Bandwidth: 1000} // 1 KB/s
	n.Register("small.test", helloHandler(string(make([]byte, 100))))
	n.Register("big.test", helloHandler(string(make([]byte, 900))))
	client := n.Client()
	for _, host := range []string{"small.test", "small.test", "big.test"} {
		resp, err := client.Get("http://" + host + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// small: 100ms + 100B/1000Bps = 200ms; big: 100ms + 900ms = 1s.
	total := n.TotalStats()
	if total.Latency.Count != 3 {
		t.Fatalf("latency count = %d", total.Latency.Count)
	}
	if total.Latency.MaxNs != int64(time.Second) {
		t.Errorf("latency max = %v", time.Duration(total.Latency.MaxNs))
	}
	if got := time.Duration(total.Latency.P50Ns); got > 200*time.Millisecond || got < 195*time.Millisecond {
		t.Errorf("p50 = %v, want ~200ms (lower bucket bound)", got)
	}
	// The sum of per-request service times must be exactly ModelledTime.
	snap := n.LatencySnapshot()
	if time.Duration(snap.Sum) != total.ModelledTime {
		t.Errorf("histogram sum %v != modelled time %v", time.Duration(snap.Sum), total.ModelledTime)
	}
	n.ResetStats()
	if n.TotalStats().Latency.Count != 0 {
		t.Error("ResetStats kept latency samples")
	}
}

func TestCDNHitMissLatencySeparation(t *testing.T) {
	clock := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=3600")
		w.Write(make([]byte, 1000))
	})
	cdn := NewCDN(origin, func() time.Time { return clock })
	n := New()
	n.Cost = CostModel{RTT: 10 * time.Millisecond, Bandwidth: 1e6, OriginRTT: 50 * time.Millisecond}
	n.Register("cdn.test", cdn)
	client := n.Client()
	for i := 0; i < 4; i++ {
		resp, err := client.Get("http://cdn.test/shard.crl")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	if st := cdn.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("hit/miss counts = %d/%d, want 3/1", st.Hits, st.Misses)
	}
	// base cost: 10ms + 1000B at 1MB/s (1ms) = 11ms; the miss adds 50ms
	// OriginRTT, so it is the slowest request and the hits sum to the rest.
	snap := n.LatencySnapshot()
	if want := 61 * time.Millisecond; time.Duration(snap.Max) != want {
		t.Errorf("miss service time = %v, want %v", time.Duration(snap.Max), want)
	}
	if want := 3 * 11 * time.Millisecond; time.Duration(snap.Sum)-time.Duration(snap.Max) != want {
		t.Errorf("hit service time = %v, want %v", time.Duration(snap.Sum)-time.Duration(snap.Max), want)
	}
	// ModelledTime includes the origin penalty exactly once.
	if want := 4*11*time.Millisecond + 50*time.Millisecond; n.TotalStats().ModelledTime != want {
		t.Errorf("modelled time = %v, want %v", n.TotalStats().ModelledTime, want)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{RTT: 40 * time.Millisecond, Bandwidth: 1e6}
	if got := m.Cost(0); got != 40*time.Millisecond {
		t.Errorf("Cost(0) = %v", got)
	}
	if got := m.Cost(1e6); got != 1040*time.Millisecond {
		t.Errorf("Cost(1MB) = %v", got)
	}
	free := CostModel{RTT: time.Second}
	if free.Cost(1<<30) != time.Second {
		t.Error("zero bandwidth should cost only RTT")
	}
	// The 76 MB Apple CRL (§5.2) takes over a minute at 10 Mbit/s.
	if DefaultCostModel.Cost(76<<20) < time.Minute {
		t.Error("76MB CRL should cost over a minute at default bandwidth")
	}
}

func TestRegisterReplacesHandler(t *testing.T) {
	n := New()
	n.Register("x.test", helloHandler("one"))
	n.Register("x.test", helloHandler("two"))
	resp, err := n.Client().Get("http://x.test/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "two" {
		t.Errorf("body = %q", body)
	}
}
