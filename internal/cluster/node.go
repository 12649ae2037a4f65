package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/serve"
)

// ForwardHeader carries the hop count of a forwarded request. Entry
// requests have no header; each forward increments it. A request at
// maxHops is served wherever it stands rather than forwarded again, so
// no routing disagreement — stale ring, mid-drain membership change —
// can loop a request.
const ForwardHeader = "X-Dspcluster-Forward"

// maxHops bounds the forward chain: entry → replica → owner is the
// longest legitimate path.
const maxHops = 2

// peerCooldown is how long a peer stays blacklisted after a failed
// forward — a short negative cache so one dead node costs each live
// node one failed dial per cooldown window, not one per request.
const peerCooldown = time.Second

// Config sizes one cluster node.
type Config struct {
	// Self is this node's advertised address (host:port) — its identity
	// on the ring. Required.
	Self string
	// Peers are the other members' advertised addresses known at start;
	// the ring is Self plus Peers. Late joiners announce themselves via
	// POST /v1/cluster/join.
	Peers []string
	// Replication is each key's replica-set size, owner included
	// (default 2, clamped to the member count). Hot keys are served by
	// any member of their replica set.
	Replication int
	// HotK, HotThreshold, and HotWindow tune hot-key detection: the top
	// HotK keys with at least HotThreshold observations per HotWindow
	// are hot (defaults 16, 8, 2s).
	HotK         int
	HotThreshold int
	HotWindow    time.Duration
	// Serve configures the inner single-node server. Its OnDrain is
	// chained after the node's own departure announcement.
	Serve serve.Config
	// Transport carries peer HTTP traffic (default
	// http.DefaultTransport). The chaos suite swaps in a partitioning
	// transport here.
	Transport http.RoundTripper
}

// Node is one member of the cluster: the single-node server plus the
// routing layer in front of its /v1/run. All other endpoints pass
// through untouched; /metrics gains the cluster counters.
type Node struct {
	cfg         Config
	self        string
	replication int
	srv         *serve.Server
	mux         *http.ServeMux
	metrics     *Metrics
	hot         *hotTracker
	client      *http.Client

	mu      sync.Mutex
	members map[string]bool
	ring    *Ring
	down    map[string]time.Time // peer -> cooldown expiry
}

// New builds a node. Callers must Close it.
func New(cfg Config) *Node {
	if cfg.Replication < 1 {
		cfg.Replication = 2
	}
	n := &Node{
		cfg:         cfg,
		self:        cfg.Self,
		replication: cfg.Replication,
		mux:         http.NewServeMux(),
		hot:         newHotTracker(cfg.HotK, cfg.HotThreshold, cfg.HotWindow),
		members:     make(map[string]bool),
		down:        make(map[string]time.Time),
	}
	n.metrics = newClusterMetrics(n.hot.HotCount)
	transport := cfg.Transport
	if transport == nil {
		// Forwarding fans many concurrent requests at a handful of
		// peers; the default transport's 2 idle connections per host
		// would re-dial for most of them.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 64
		transport = tr
	}
	n.client = &http.Client{Transport: transport}

	// Departure runs before the inner server cancels anything: the
	// node's OnDrain chain is announce-first, then the caller's hook.
	sc := cfg.Serve
	inner := sc.OnDrain
	sc.OnDrain = func() {
		n.announceLeave()
		if inner != nil {
			inner()
		}
	}
	n.srv = serve.New(sc)

	n.members[cfg.Self] = true
	for _, p := range cfg.Peers {
		if p != "" {
			n.members[p] = true
		}
	}
	n.rebuildRing()

	n.mux.HandleFunc("POST /v1/run", n.handleRun)
	n.mux.HandleFunc("POST /v1/cluster/join", n.handleJoin)
	n.mux.HandleFunc("POST /v1/cluster/leave", n.handleLeave)
	n.mux.HandleFunc("GET /v1/cluster/ring", n.handleRing)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.Handle("/", n.srv.Handler())
	return n
}

// Handler returns the node's mux.
func (n *Node) Handler() http.Handler { return n.mux }

// Server exposes the inner single-node server (drain, stats, close).
func (n *Node) Server() *serve.Server { return n.srv }

// Metrics exposes the cluster routing counters.
func (n *Node) Metrics() *Metrics { return n.metrics }

// BeginDrain flips readiness and announces departure to every peer,
// in that order, before any in-flight work is cancelled.
func (n *Node) BeginDrain() { n.srv.BeginDrain() }

// Close shuts down the inner server.
func (n *Node) Close() { n.srv.Close() }

// ReplicaSet returns key's replica set — owner first — on this node's
// current ring. Tests and the load generator use it to pick nodes by
// role.
func (n *Node) ReplicaSet(key string) []string {
	return n.currentRing().Replicas(key, n.replication)
}

// RunKey computes the routing key this node hashes for a job — the
// harness memo key under the node's effective engine.
func (n *Node) RunKey(j serve.Job) string {
	return bench.CacheKey(j.Prog, j.Mode, j.Options(n.cfg.Serve.Engine))
}

// rebuildRing rebuilds the ring from the member set. Caller must not
// hold n.mu.
func (n *Node) rebuildRing() {
	n.mu.Lock()
	ms := make([]string, 0, len(n.members))
	for m := range n.members {
		ms = append(ms, m)
	}
	n.ring = NewRing(ms)
	count := len(ms)
	n.mu.Unlock()
	n.metrics.setMembers(count)
}

// currentRing returns the ring snapshot.
func (n *Node) currentRing() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// peerDown reports whether addr is inside its failure cooldown.
func (n *Node) peerDown(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	exp, ok := n.down[addr]
	if !ok {
		return false
	}
	if time.Now().After(exp) {
		delete(n.down, addr)
		return false
	}
	return true
}

// markDown starts addr's failure cooldown.
func (n *Node) markDown(addr string) {
	n.mu.Lock()
	n.down[addr] = time.Now().Add(peerCooldown)
	n.mu.Unlock()
}

// maxSourceBytes mirrors the inner server's default so the routing
// decoder and the serving decoder accept identical bodies.
func (n *Node) maxSourceBytes() int {
	if n.cfg.Serve.MaxSourceBytes > 0 {
		return n.cfg.Serve.MaxSourceBytes
	}
	return 1 << 20
}

// handleRun routes POST /v1/run. Source jobs and malformed bodies go
// straight to the inner server (the latter so error responses are
// byte-identical to a single node's). Cacheable jobs route by memo
// key: the owner serves, replicas serve what they hold, any node
// serves a hot key, everyone else forwards.
func (n *Node) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(n.maxSourceBytes())*2+4096))
	if err != nil {
		// Oversized or torn body: let the inner server produce its own
		// error shape from the same (truncated) read.
		n.serveLocal(w, r, body, "source")
		return
	}
	job, err := serve.DecodeRequest(body, n.maxSourceBytes())
	if err != nil || !job.Cacheable {
		n.serveLocal(w, r, body, "source")
		return
	}

	engine := job.Options(n.cfg.Serve.Engine).Engine
	key := n.RunKey(job)
	hot := n.hot.Observe(key)
	hops := 0
	if h := r.Header.Get(ForwardHeader); h != "" {
		hops, _ = strconv.Atoi(h)
	}

	ring := n.currentRing()
	reps := ring.Replicas(key, n.replication)
	selfIdx := -1
	for i, m := range reps {
		if m == n.self {
			selfIdx = i
			break
		}
	}

	switch {
	case len(reps) == 0 || selfIdx == 0:
		n.serveLocal(w, r, body, "owner")
	case selfIdx > 0: // replica, not owner
		switch {
		case hot:
			n.serveLocal(w, r, body, "hot")
		case n.srv.HasCached(job):
			n.serveLocal(w, r, body, "cached")
		case hops >= maxHops:
			n.serveLocal(w, r, body, "hop_cap")
		default:
			n.forward(w, r, body, engine, []string{reps[0]}, "owner", hops)
		}
	default: // not in the replica set
		switch {
		case hot:
			// A hot key is served wherever it lands: by promotion time
			// the owner has computed and published the result, so this
			// serve is an L2 (or local memo) hit, and the head of a
			// skewed workload diffuses across the whole fleet instead of
			// queueing on its replica set. Without a shared store this
			// costs at most one extra compute per node, bounded and
			// deliberate.
			n.serveLocal(w, r, body, "hot")
		case hops >= maxHops:
			n.serveLocal(w, r, body, "hop_cap")
		default:
			n.forward(w, r, body, engine, append([]string(nil), reps...), "owner", hops)
		}
	}
}

// serveLocal hands the request to the inner server with the body
// restored, counting the routing reason.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, reason string) {
	n.metrics.Local(reason)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.srv.Handler().ServeHTTP(w, r2)
}

// forward relays the request to the first healthy target, pinning the
// effective engine into the body so the executor computes the identical
// memo key. Targets inside their failure cooldown are skipped; if every
// target is down the request is served locally. A forward that fails on
// the wire marks its peer down and falls back to local compute — a
// degraded cluster answers slower, it does not error.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, body []byte, engine bench.Engine, targets []string, role string, hops int) {
	fwdBody, err := pinEngine(body, engine)
	if err != nil {
		n.serveLocal(w, r, body, "source")
		return
	}
	for _, target := range targets {
		if target == n.self || n.peerDown(target) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			"http://"+target+"/v1/run", bytes.NewReader(fwdBody))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, strconv.Itoa(hops+1))
		resp, err := n.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away, not the peer; serve locally so the
				// inner server accounts the cancellation (499) exactly as a
				// single node would.
				n.serveLocal(w, r, body, "fallback")
				return
			}
			n.metrics.ForwardError()
			n.markDown(target)
			continue
		}
		n.metrics.Forward(role)
		copyResponse(w, resp)
		return
	}
	// Every candidate peer is down or skipped: degrade to local compute.
	n.metrics.Local("peer_down")
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.srv.Handler().ServeHTTP(w, r2)
}

// pinEngine re-marshals the request body with the engine made
// explicit, so the executing node — whatever its own default — runs
// the engine the routing decision hashed.
func pinEngine(body []byte, engine bench.Engine) ([]byte, error) {
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	req.Engine = engine.String()
	return json.Marshal(&req)
}

// copyResponse relays a peer's response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// memberChange is the body of join and leave announcements.
type memberChange struct {
	Addr string `json:"addr"`
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	n.memberEdit(w, r, true)
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	n.memberEdit(w, r, false)
}

func (n *Node) memberEdit(w http.ResponseWriter, r *http.Request, add bool) {
	var mc memberChange
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&mc); err != nil || mc.Addr == "" {
		http.Error(w, `{"error":"body must be {\"addr\":\"host:port\"}"}`, http.StatusBadRequest)
		return
	}
	n.mu.Lock()
	if add {
		n.members[mc.Addr] = true
		delete(n.down, mc.Addr) // a joining peer is alive by definition
	} else if mc.Addr != n.self {
		delete(n.members, mc.Addr)
	}
	n.mu.Unlock()
	n.rebuildRing()
	n.handleRing(w, r)
}

// ringResponse is the body of GET /v1/cluster/ring.
type ringResponse struct {
	Self        string   `json:"self"`
	Members     []string `json:"members"`
	Replication int      `json:"replication"`
	Draining    bool     `json:"draining"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	resp := ringResponse{
		Self:        n.self,
		Members:     n.currentRing().Members(),
		Replication: n.replication,
		Draining:    n.srv.Draining(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleMetrics renders the inner server's families followed by the
// cluster tier's.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rec := &bufferingWriter{header: make(http.Header)}
	n.srv.Handler().ServeHTTP(rec, r.Clone(r.Context()))
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	code := rec.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	w.Write(rec.buf.Bytes())
	n.metrics.WritePrometheus(w)
}

// bufferingWriter captures the inner /metrics body so the cluster
// families can be appended after it.
type bufferingWriter struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func (b *bufferingWriter) Header() http.Header { return b.header }
func (b *bufferingWriter) WriteHeader(c int)   { b.code = c }
func (b *bufferingWriter) Write(p []byte) (int, error) {
	return b.buf.Write(p)
}

// announceLeave tells every peer this node is departing. Best-effort
// and bounded: a partitioned peer must not stall the drain.
func (n *Node) announceLeave() {
	peers := n.currentRing().Members()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range peers {
		if p == n.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"addr":%q}`, n.self)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				"http://"+peer+"/v1/cluster/leave", strings.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if resp, err := n.client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(p)
	}
	wg.Wait()
}

// Join announces this node to each configured peer and merges the
// members they report. Best-effort: unreachable peers are skipped.
func (n *Node) Join(ctx context.Context) {
	for _, p := range n.cfg.Peers {
		if p == "" || p == n.self {
			continue
		}
		body := fmt.Sprintf(`{"addr":%q}`, n.self)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+p+"/v1/cluster/join", strings.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := n.client.Do(req)
		if err != nil {
			continue
		}
		var rr ringResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			continue
		}
		n.mu.Lock()
		for _, m := range rr.Members {
			n.members[m] = true
		}
		n.mu.Unlock()
	}
	n.rebuildRing()
}
