package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dualbank/internal/cluster"
	"dualbank/internal/faultinject"
	"dualbank/internal/serve"
)

// quickSource is a terminating MiniC program for source-job arms.
const quickSource = `
int sink[1];
void main() {
	int i;
	int acc = 0;
	for (i = 0; i < 100; i++) {
		acc = acc + i;
	}
	sink[0] = acc;
}
`

// postJSON posts body to url and returns status plus response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// getJSON fetches url into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, data)
		}
	}
	return resp.StatusCode
}

// jobFor decodes a request body into a serve.Job for key computation.
func jobFor(t *testing.T, body string) serve.Job {
	t.Helper()
	j, err := serve.DecodeRequest([]byte(body), 1<<20)
	if err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return j
}

// nodeIndexByAddr maps a ring address back to its fixture index.
func nodeIndexByAddr(t *testing.T, lc *cluster.LocalCluster, addr string) int {
	t.Helper()
	for i := 0; i < lc.N(); i++ {
		if lc.Addr(i) == addr {
			return i
		}
	}
	t.Fatalf("address %s not in fixture %v", addr, lc.Addrs())
	return -1
}

// metricValue extracts one (possibly labeled) sample from Prometheus
// text exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s absent:\n%s", name, text)
	}
	v, _ := strconv.ParseInt(m[1], 10, 64)
	return v
}

// TestClusterCrossNodeSingleFlight sprays one cold key concurrently
// across every node of a 3-node fleet and proves exactly one compute
// happened fleet-wide: every response is 200 with identical cycles,
// and the fleet's miss counters — read from /metrics, the same surface
// operators see — sum to one.
func TestClusterCrossNodeSingleFlight(t *testing.T) {
	lc, err := cluster.StartLocal(cluster.LocalOptions{
		N: 3, Replication: 2,
		// Hotness off: hot-key replication deliberately buys extra
		// copies, and this test pins down the cold-key guarantee.
		HotThreshold: 1 << 30,
		Serve:        serve.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	const body = `{"bench":"fir_32_1","mode":"Dup","partitioner":"fm"}`
	const requests = 30
	var wg sync.WaitGroup
	cycles := make([]int64, requests)
	codes := make([]int, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, data := postJSON(t, lc.URL(i%lc.N())+"/v1/run", body)
			codes[i] = code
			var resp serve.Response
			if json.Unmarshal(data, &resp) == nil {
				cycles[i] = resp.Cycles
			}
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if cycles[i] != cycles[0] {
			t.Fatalf("request %d measured %d cycles, request 0 measured %d", i, cycles[i], cycles[0])
		}
	}

	var misses int64
	for i := 0; i < lc.N(); i++ {
		resp, err := http.Get(lc.URL(i) + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(data)
		misses += metricValue(t, text, "dspservd_cache_misses_total")
		if !strings.Contains(text, "dspcluster_members 3") {
			t.Errorf("node %d metrics lack dspcluster_members 3", i)
		}
	}
	if misses != 1 {
		t.Errorf("fleet computed the key %d times, want exactly 1", misses)
	}
}

// TestClusterHotKeyReplication drives one key past the hot threshold
// through a replica and checks the replica starts absorbing it locally
// — via the shared L2, never by recomputing: the fleet-wide compute
// count stays 1.
func TestClusterHotKeyReplication(t *testing.T) {
	lc, err := cluster.StartLocal(cluster.LocalOptions{
		N: 3, Replication: 2,
		StoreDir:     t.TempDir(),
		HotK:         4,
		HotThreshold: 2,
		HotWindow:    time.Hour,
		Serve:        serve.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	const body = `{"bench":"iir_4_64","mode":"CB"}`
	key := lc.Node(0).RunKey(jobFor(t, body))
	reps := lc.Node(0).ReplicaSet(key)
	if len(reps) != 2 {
		t.Fatalf("replica set %v, want 2 members", reps)
	}
	owner := nodeIndexByAddr(t, lc, reps[0])
	replica := nodeIndexByAddr(t, lc, reps[1])

	// Warm the key through its owner: one compute, published to the L2.
	if code, data := postJSON(t, lc.URL(owner)+"/v1/run", body); code != http.StatusOK {
		t.Fatalf("owner warm-up: status %d: %s", code, data)
	}
	// Hammer the replica. The first requests forward (cold, not yet
	// hot); once its counter clears the threshold it serves locally from
	// the shared store.
	for i := 0; i < 10; i++ {
		if code, data := postJSON(t, lc.URL(replica)+"/v1/run", body); code != http.StatusOK {
			t.Fatalf("replica request %d: status %d: %s", i, code, data)
		}
	}

	rs := lc.Node(replica).Server().CacheStats()
	if rs.Misses != 0 {
		t.Errorf("replica computed %d times; replication must serve without recomputing", rs.Misses)
	}
	if rs.L2Hits < 1 {
		t.Errorf("replica L2 hits %d, want at least 1 (the hot promotion)", rs.L2Hits)
	}
	if hot := lc.Node(replica).Metrics().Snapshot().Local["hot"]; hot < 1 {
		t.Errorf("replica served %d requests as hot, want at least 1", hot)
	}
	if os := lc.Node(owner).Server().CacheStats(); os.Misses != 1 {
		t.Errorf("owner computed %d times, want exactly 1", os.Misses)
	}
	if total := lc.Node(replica).Server().CacheStats().Misses +
		lc.Node(owner).Server().CacheStats().Misses +
		lc.Node(3-owner-replica).Server().CacheStats().Misses; total != 1 {
		t.Errorf("fleet computed %d times, want 1", total)
	}
}

// TestClusterDrainAnnounce is the regression test for the graceful
// drain ordering: BeginDrain must flip /readyz AND announce departure
// to every peer before any in-flight work is cancelled. A request in
// flight on the draining node (held open by an injected 300ms delay)
// must complete 200 even though readiness flipped and the peers
// deregistered the node while it ran.
func TestClusterDrainAnnounce(t *testing.T) {
	inj := faultinject.New(faultinject.Profile{
		Seed:    1,
		Latency: 1.0, LatencyDur: 300 * time.Millisecond,
	})
	lc, err := cluster.StartLocal(cluster.LocalOptions{
		N: 3, Replication: 2,
		Serve: serve.Config{Workers: 2},
		Configure: func(i int, cfg *cluster.Config) {
			if i == 0 {
				cfg.Serve.Fault = inj
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// A source job always executes on the node it lands on.
	body := fmt.Sprintf(`{"source":%q,"timeout_ms":10000}`, quickSource)
	type result struct {
		code int
		data []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(lc.URL(0)+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			inflight <- result{code: -1, data: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, data: data}
	}()
	// Let the request reach the pool (it then sits in the injected
	// delay for 300ms).
	time.Sleep(100 * time.Millisecond)

	lc.Node(0).BeginDrain()

	// Readiness flipped...
	resp, err := http.Get(lc.URL(0) + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz on draining node: status %d, want 503", resp.StatusCode)
	}
	// ...and the peers already deregistered the node, while the request
	// is still in flight.
	for i := 1; i < lc.N(); i++ {
		var ring struct {
			Members []string `json:"members"`
		}
		getJSON(t, lc.URL(i)+"/v1/cluster/ring", &ring)
		for _, m := range ring.Members {
			if m == lc.Addr(0) {
				t.Errorf("peer %d still lists the draining node %s: %v", i, lc.Addr(0), ring.Members)
			}
		}
	}

	select {
	case r := <-inflight:
		if r.code != http.StatusOK {
			t.Errorf("in-flight request during drain: status %d: %s", r.code, r.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestClusterMembership exercises the join/leave endpoints and the
// self-protection rule: a node never deregisters itself on a peer's
// say-so.
func TestClusterMembership(t *testing.T) {
	lc, err := cluster.StartLocal(cluster.LocalOptions{
		N: 2, Replication: 2,
		Serve: serve.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	var ring struct {
		Members     []string `json:"members"`
		Replication int      `json:"replication"`
	}
	if code := getJSON(t, lc.URL(0)+"/v1/cluster/ring", &ring); code != http.StatusOK {
		t.Fatalf("ring: status %d", code)
	}
	if len(ring.Members) != 2 || ring.Replication != 2 {
		t.Fatalf("ring %+v, want 2 members replication 2", ring)
	}

	code, data := postJSON(t, lc.URL(0)+"/v1/cluster/join", `{"addr":"127.0.0.1:1"}`)
	if code != http.StatusOK {
		t.Fatalf("join: status %d: %s", code, data)
	}
	getJSON(t, lc.URL(0)+"/v1/cluster/ring", &ring)
	if len(ring.Members) != 3 {
		t.Fatalf("after join: %v, want 3 members", ring.Members)
	}

	postJSON(t, lc.URL(0)+"/v1/cluster/leave", `{"addr":"127.0.0.1:1"}`)
	getJSON(t, lc.URL(0)+"/v1/cluster/ring", &ring)
	if len(ring.Members) != 2 {
		t.Fatalf("after leave: %v, want 2 members", ring.Members)
	}

	// A leave naming the node itself is ignored.
	postJSON(t, lc.URL(0)+"/v1/cluster/leave", fmt.Sprintf(`{"addr":%q}`, lc.Addr(0)))
	getJSON(t, lc.URL(0)+"/v1/cluster/ring", &ring)
	found := false
	for _, m := range ring.Members {
		found = found || m == lc.Addr(0)
	}
	if !found {
		t.Error("node deregistered itself on a leave request")
	}

	if code, _ := postJSON(t, lc.URL(0)+"/v1/cluster/join", `{"nope":1}`); code != http.StatusBadRequest {
		t.Errorf("malformed join: status %d, want 400", code)
	}
}

// TestClusterRoutesMultiBankToOwner pins handleRun's routing key to
// RunKey for requests that carry a bank geometry: a body POSTed to the
// owner RunKey names must be served there as "owner", never forwarded.
// A routing key that dropped banks or ports would hash these bodies to
// the classic machine's owner instead; with eight bodies, the chance
// that every such owner coincides with the right one on a random
// three-node ring is under 1 in 6,000.
func TestClusterRoutesMultiBankToOwner(t *testing.T) {
	lc, err := cluster.StartLocal(cluster.LocalOptions{
		N: 3, Replication: 1,
		Serve: serve.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	for _, body := range []string{
		`{"bench":"latnrm_8_1","mode":"CB","banks":4}`,
		`{"bench":"fir_32_1","mode":"CB","banks":3}`,
		`{"bench":"iir_1_1","mode":"CB","banks":4,"ports":2}`,
		`{"bench":"lmsfir_8_1","mode":"CB","banks":4}`,
		`{"bench":"mult_4_4","mode":"Dup","banks":3}`,
		`{"bench":"fir_32_1","mode":"CB","banks":4,"ports":2}`,
		`{"bench":"iir_4_64","mode":"Pr","banks":3,"ports":2}`,
		`{"bench":"latnrm_8_1","mode":"single-bank","banks":4}`,
	} {
		reps := lc.Node(0).ReplicaSet(lc.Node(0).RunKey(jobFor(t, body)))
		if len(reps) != 1 {
			t.Fatalf("%s: replica set %v, want 1 member", body, reps)
		}
		owner := lc.Node(nodeIndexByAddr(t, lc, reps[0]))
		before := owner.Metrics().Snapshot()
		if code, data := postJSON(t, "http://"+reps[0]+"/v1/run", body); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, data)
		}
		after := owner.Metrics().Snapshot()
		if got := after.Local["owner"] - before.Local["owner"]; got != 1 {
			t.Errorf("%s: owner served %d requests as owner, want 1 (local %v)", body, got, after.Local)
		}
		for target, n := range after.Forward {
			if n != before.Forward[target] {
				t.Errorf("%s: owner forwarded to %s (%d -> %d)", body, target, before.Forward[target], n)
			}
		}
	}
}
