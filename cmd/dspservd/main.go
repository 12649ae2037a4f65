// Command dspservd serves the dual-bank compile-and-simulate pipeline
// over HTTP/JSON: POST a benchmark name or MiniC source plus an
// allocation mode, get back the cycle count, memory footprint, and
// duplication stats of one measurement. Requests run on a bounded
// worker pool with per-request deadlines honored down to the
// simulator's basic-block boundaries; named-benchmark results are
// memoized behind a single-flight cache.
//
// Endpoints:
//
//	POST /v1/run                   {"bench":"fir_256_64","mode":"CB","timeout_ms":5000}
//	POST /v1/explore               {"benchmarks":["fft_256"],"budget":200} → async job
//	GET  /v1/explore/{id}          exploration job status
//	GET  /v1/explore/{id}/frontier completed exploration's Pareto report
//	GET  /v1/benchmarks            benchmark, mode, and partitioner inventory
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 once draining)
//	GET  /metrics                  Prometheus text exposition
//	     /debug/pprof/             the standard profiling endpoints
//
// With -explore-store, exploration evaluations are checkpointed to the
// given directory as they complete; a job interrupted by shutdown
// resumes from those checkpoints when resubmitted.
//
// Overload protection: -admit-timeout bounds how long a request waits
// for a worker slot before being shed with 429 + Retry-After (0 keeps
// unbounded waiting, limited only by the request deadline), and -rate
// / -rate-burst token-bucket individual clients. On SIGINT/SIGTERM the
// server flips /readyz to 503 first, then drains.
//
// Cluster mode: -self plus -peers shard the keyspace across a fleet on
// a consistent-hash ring — each cacheable /v1/run routes to its
// owner's single-flight cache, hot keys are served by any replica, and
// -store points every node at one shared L2 result store (bounded by
// -store-max-bytes / -store-max-age, pruned LRU-by-mtime every
// minute). On shutdown a cluster node announces its departure to the
// peers after flipping /readyz and before cancelling in-flight work.
//
// -fault-profile injects deterministic faults (I/O errors, latency
// spikes, compute errors, starvation bursts) for chaos testing. It is
// refused unless DSP_FAULT_ENABLE=1 is set in the environment, so a
// production unit file cannot enable it by accident.
//
// Usage:
//
//	dspservd [-addr :8357] [-workers N] [-queue N]
//	         [-timeout 10s] [-max-timeout 60s] [-max-source 1048576]
//	         [-admit-timeout 0] [-rate 0] [-rate-burst 0]
//	         [-explore-store dir] [-fault-profile spec]
//	         [-store dir] [-store-max-bytes N] [-store-max-age D]
//	         [-self host:port] [-peers h1:p1,h2:p2] [-replication 2]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/cluster"
	"dualbank/internal/explore/store"
	"dualbank/internal/faultinject"
	"dualbank/internal/serve"
)

// splitPeers parses the -peers flag: comma-separated, blanks dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so smoke tests
// can drive the full server lifecycle in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspservd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8357", "listen address")
	workers := fs.Int("workers", 0, "worker pool width (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "accepted-but-unstarted job bound (default 2x workers)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline when the request sets none")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "upper clamp on requested deadlines")
	maxSource := fs.Int("max-source", 1<<20, "source size cap in bytes")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
	admitTimeout := fs.Duration("admit-timeout", 0, "shed requests (429) that wait longer than this for a worker slot (0 = wait out the deadline)")
	rate := fs.Float64("rate", 0, "per-client request rate limit in requests/sec (0 = off)")
	rateBurst := fs.Int("rate-burst", 0, "per-client burst allowance (default ceil(rate))")
	engineName := fs.String("engine", "compiled", "simulation engine: "+bench.EngineNames())
	exploreStore := fs.String("explore-store", "", "checkpoint /v1/explore evaluations to this directory")
	storeDir := fs.String("store", "", "shared result-store directory: L2 cache for /v1/run plus /v1/explore checkpoints (cluster nodes share one)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "prune the result store LRU-by-mtime to this byte budget (0 = unbounded)")
	storeMaxAge := fs.Duration("store-max-age", 0, "evict result-store records older than this (0 = keep forever)")
	self := fs.String("self", "", "cluster mode: this node's advertised host:port on the ring")
	peers := fs.String("peers", "", "cluster mode: comma-separated peer host:port list")
	replication := fs.Int("replication", 2, "cluster mode: replica-set size per key")
	faultProfile := fs.String("fault-profile", "", "inject faults per this profile (requires DSP_FAULT_ENABLE=1; e.g. seed=1,ioerr=0.05,latency=0.02)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	engine, err := bench.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(stderr, "dspservd:", err)
		return 2
	}

	inj, err := faultinject.FromFlag(*faultProfile)
	if err != nil {
		fmt.Fprintln(stderr, "dspservd:", err)
		return 2
	}
	if inj != nil {
		fmt.Fprintf(stderr, "dspservd: FAULT INJECTION ACTIVE (%s)\n", *faultProfile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// openStore opens a checkpoint/result store, riding the injected
	// filesystem when a fault profile is active.
	openStore := func(dir string) (*store.Store, error) {
		if inj != nil {
			return store.OpenFS(dir, faultinject.NewFaultFS(faultinject.OSFS{}, inj))
		}
		return store.Open(dir)
	}

	// -store is the shared tier: it backs the /v1/run L2 result cache
	// and, unless -explore-store points elsewhere, the exploration
	// checkpoints too (the two live in disjoint key namespaces).
	var shared, expl *store.Store
	if *storeDir != "" {
		var err error
		if shared, err = openStore(*storeDir); err != nil {
			fmt.Fprintln(stderr, "dspservd:", err)
			return 1
		}
		expl = shared
	}
	if *exploreStore != "" {
		var err error
		if expl, err = openStore(*exploreStore); err != nil {
			fmt.Fprintln(stderr, "dspservd:", err)
			return 1
		}
	}

	scfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxSourceBytes: *maxSource,
		Engine:         engine,
		ExploreStore:   expl,
		AdmitTimeout:   *admitTimeout,
		RatePerSec:     *rate,
		RateBurst:      *rateBurst,
		Fault:          inj,
	}
	if shared != nil {
		scfg.ResultCache = cluster.NewStoreCache(shared)
	}

	var s *serve.Server
	var node *cluster.Node
	handlerDesc := "single node"
	if *self != "" {
		node = cluster.New(cluster.Config{
			Self:        *self,
			Peers:       splitPeers(*peers),
			Replication: *replication,
			Serve:       scfg,
		})
		s = node.Server()
		handlerDesc = fmt.Sprintf("cluster node %s (replication=%d)", *self, *replication)
	} else {
		s = serve.New(scfg)
	}
	defer s.Close()
	handler := s.Handler()
	if node != nil {
		handler = node.Handler()
	}

	// The store GC: bound the shared store's footprint on a fixed
	// cadence. Runs once at startup so a long-dead deployment's debris
	// clears before traffic, then every minute.
	if shared != nil && (*storeMaxBytes > 0 || *storeMaxAge > 0) {
		if pst, err := shared.Prune(*storeMaxBytes, *storeMaxAge); err != nil {
			fmt.Fprintln(stderr, "dspservd: prune:", err)
		} else if pst.Removed > 0 || pst.TempSwept > 0 {
			fmt.Fprintf(stdout, "dspservd: store prune: kept %d (%d bytes), removed %d, swept %d temps\n",
				pst.Kept, pst.KeptBytes, pst.Removed, pst.TempSwept)
		}
		go func() {
			tick := time.NewTicker(time.Minute)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := shared.Prune(*storeMaxBytes, *storeMaxAge); err != nil {
						fmt.Fprintln(stderr, "dspservd: prune:", err)
					}
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "dspservd:", err)
		return 1
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "dspservd: listening on %s (workers=%d, %s)\n", ln.Addr(), s.Pool().Workers(), handlerDesc)
	if node != nil {
		// Announce after the listener is up: a peer learning of this
		// node may route to it immediately.
		node.Join(ctx)
	}

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "dspservd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: flip /readyz unready so load balancers stop
	// routing here (in cluster mode this also announces departure to
	// every peer, while all in-flight work still runs), stop accepting,
	// drain in-flight handlers within the budget, then cancel whatever
	// is still running by closing the pool (the deferred Close).
	s.BeginDrain()
	fmt.Fprintln(stdout, "dspservd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "dspservd:", err)
		return 1
	}
	return 0
}
