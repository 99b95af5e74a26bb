// Command gpsd serves the GPS experiment suite as a long-running service:
// simulation jobs are submitted over a JSON REST API, scheduled on a
// bounded worker pool in front of the shared memoizing experiments runner,
// and identical specs are answered from a content-addressed result cache.
//
// Usage:
//
//	gpsd                                # listen on :8377, 2 job workers
//	gpsd -addr 127.0.0.1:0              # ephemeral port (printed on stdout)
//	gpsd -workers 4 -queue 32           # more concurrency, deeper queue
//	gpsd -job-timeout 5m -drain 30s     # per-job cap, shutdown drain budget
//	gpsd -parallel 8                    # simulation cells per job
//	gpsd -journal gpsd.journal          # durable job log; crash recovery
//	gpsd -job-retries 3                 # attempts per job on transient failure
//	gpsd -pprof 127.0.0.1:6060          # net/http/pprof on a separate listener
//	gpsd -log-level debug -log-json     # structured logs on stderr
//	gpsd -trace-dir traces/             # one Perfetto span trace per job
//
// Observability: structured logs (slog) go to stderr, correlated by job_id;
// GET /metrics serves Prometheus text exposition next to the JSON
// /v1/metrics; -trace-dir writes <job-id>.trace.json span traces loadable
// in Perfetto (ui.perfetto.dev).
//
// Submit and poll with curl:
//
//	curl -d '{"type":"figure","figure":8,"quick":true}' localhost:8377/v1/jobs
//	curl localhost:8377/v1/jobs/j-000001
//	curl localhost:8377/v1/jobs/j-000001/result
//
// SIGINT/SIGTERM drain gracefully: running jobs get -drain to finish,
// queued jobs are canceled, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gps/internal/cluster"
	"gps/internal/experiments"
	"gps/internal/httpapi"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/retry"
	"gps/internal/service"
)

// remoteResult adapts the cluster's peer result fetch into the service's
// RemoteResult hook; a nil cluster (single-node mode) yields a nil hook.
func remoteResult(clu *cluster.Cluster) func(ctx context.Context, hash string) *report.Report {
	if clu == nil {
		return nil
	}
	return clu.FetchPeerResult
}

// reconcile adapts the cluster's resurrection handshake into the service's
// Reconcile hook: journal-replayed jobs that our takeover successor already
// adopted are delegated to it instead of re-run locally.
func reconcile(clu *cluster.Cluster) func(p service.PendingJob) string {
	if clu == nil {
		return nil
	}
	return clu.Reconcile
}

func main() {
	var (
		addr       = flag.String("addr", ":8377", "listen address (host:port; port 0 picks one)")
		workers    = flag.Int("workers", 2, "concurrent jobs")
		queue      = flag.Int("queue", 16, "admission queue depth (beyond running jobs)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "per-job execution cap (0 = unlimited)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain budget for running jobs")
		parallel   = flag.Int("parallel", 0, "simulation worker goroutines per job (0 = GOMAXPROCS)")
		cacheN     = flag.Int("cache", 256, "content-addressed result cache entries")
		journalP   = flag.String("journal", "", "job journal path; enables crash recovery (empty = no journal)")
		jobRetries = flag.Int("job-retries", 3, "attempts per job on transient failure")
		pprofAddr  = flag.String("pprof", "", "expose net/http/pprof on this separate listen address (e.g. 127.0.0.1:6060); empty = disabled")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error (debug adds per-cell progress)")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON lines instead of logfmt-style text")
		traceDir   = flag.String("trace-dir", "", "write one Perfetto span trace per job to this directory (created if missing); empty = disabled")
		nodeID     = flag.String("node-id", "", "cluster node ID; enables cluster mode (job IDs become <node>-j-NNNNNN)")
		peersFlag  = flag.String("peers", "", "comma-separated peer list, id=http://host:port each (requires -node-id)")
		probeIvl   = flag.Duration("probe-interval", 2*time.Second, "peer healthz liveness probe interval (cluster mode)")
		stealIvl   = flag.Duration("steal-interval", time.Second, "work-steal attempt interval when idle; negative disables stealing (cluster mode)")
		suspicion  = flag.Int("suspicion", 3, "consecutive failed probes before a peer is declared dead (cluster mode)")
		budget     = flag.Int64("trace-budget", 0, "trace cache resident byte budget; past it the least-recently-used traces are evicted and rebuilt on next use (0 = default 4 GiB)")
	)
	flag.Parse()

	if *peersFlag != "" && *nodeID == "" {
		fmt.Fprintln(os.Stderr, "gpsd: -peers requires -node-id")
		os.Exit(1)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpsd:", err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	registry := obs.NewRegistry()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "gpsd:", err)
			os.Exit(1)
		}
	}

	if *pprofAddr != "" {
		// Profiling lives on its own listener so it is never reachable through
		// the public job API's address, and an operator can bind it to
		// loopback only.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpsd:", err)
			os.Exit(1)
		}
		fmt.Printf("gpsd: pprof on %s\n", pln.Addr())
		go func() {
			if err := (&http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}).Serve(pln); err != nil {
				fmt.Fprintln(os.Stderr, "gpsd: pprof:", err)
			}
		}()
	}

	var journal *service.Journal
	if *journalP != "" {
		var err error
		journal, err = service.OpenJournal(*journalP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpsd:", err)
			os.Exit(1)
		}
		defer journal.Close()
	}

	experiments.SetParallelism(*parallel)
	if *budget > 0 {
		experiments.Default.SetTraceBudget(uint64(*budget))
	}

	// Cluster mode: the cluster is built before the service so the service
	// can resolve peer-cached results, and bound to it after so the steal
	// loop can execute stolen specs locally.
	var clu *cluster.Cluster
	if *nodeID != "" {
		clu = cluster.New(cluster.Config{
			Self:               *nodeID,
			ProbeInterval:      *probeIvl,
			StealInterval:      *stealIvl,
			SuspicionThreshold: *suspicion,
			Logger:             logger,
			Registry:           registry,
		})
		for _, p := range strings.Split(*peersFlag, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			id, url, ok := strings.Cut(p, "=")
			if !ok || id == "" || url == "" {
				fmt.Fprintf(os.Stderr, "gpsd: bad -peers entry %q (want id=http://host:port)\n", p)
				os.Exit(1)
			}
			if id == *nodeID {
				continue // self-entry in a shared config file is fine; skip it
			}
			clu.AddPeer(id, url)
		}
		// One synchronous probe sweep before the service replays its journal:
		// the resurrection handshake (Reconcile) needs a liveness view to ask
		// the ring successor which replayed jobs it already adopted.
		clu.ProbeOnce(context.Background())
	}

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		CacheEntries: *cacheN,
		JobRetry:     retry.Policy{MaxAttempts: *jobRetries, BaseDelay: 250 * time.Millisecond, MaxDelay: 10 * time.Second, Jitter: 0.2},
		Journal:      journal,
		Logger:       logger,
		Registry:     registry,
		TraceDir:     *traceDir,
		NodeID:       *nodeID,
		RemoteResult: remoteResult(clu),
		Reconcile:    reconcile(clu),
	})
	if clu != nil {
		clu.Bind(svc)
		if journal != nil {
			// Attach the replication stream: every journal record committed
			// from here on is mirrored to the ring successor. Records replayed
			// above are covered by the initial full-snapshot flush.
			journal.SetSink(clu)
			clu.EnableReplication()
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpsd:", err)
		os.Exit(1)
	}
	// The resolved address line is load-bearing: serve-smoke and scripts
	// parse it to discover an ephemeral port.
	fmt.Printf("gpsd: listening on %s (%d workers, queue %d, job timeout %v)\n",
		ln.Addr(), *workers, *queue, *jobTimeout)
	if journal != nil {
		fmt.Printf("gpsd: journal %s (%d jobs recovered)\n",
			journal.Path(), svc.Metrics().JobsReplayed)
	}

	// Slow-client protection: a stalled or malicious peer must not pin a
	// connection (and its goroutine) forever. WriteTimeout is generous
	// because result bodies for big matrices take real time to render.
	apiOpts := []httpapi.Option{httpapi.WithLogger(logger), httpapi.WithRegistry(registry)}
	if clu != nil {
		apiOpts = append(apiOpts, httpapi.WithCluster(clu))
	}
	httpSrv := &http.Server{
		Handler:           httpapi.New(svc, apiOpts...),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if clu != nil {
		peers := clu.Peers()
		fmt.Printf("gpsd: cluster node %s (%d peers)\n", clu.Self(), len(peers))
		clu.Start(ctx)
	}

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "gpsd:", err)
		os.Exit(1)
	}
	stop() // restore default signal handling: a second signal kills hard

	fmt.Printf("gpsd: draining (up to %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drained := svc.Shutdown(drainCtx)
	httpSrv.Shutdown(drainCtx) //nolint:errcheck // listener teardown best-effort
	if drained != nil && !errors.Is(drained, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gpsd: drain deadline exceeded; running jobs aborted")
		os.Exit(1)
	}
	fmt.Println("gpsd: drained cleanly")
}
