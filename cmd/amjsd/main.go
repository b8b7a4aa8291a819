// Command amjsd hosts the scheduling engine as a long-running daemon
// behind a JSON HTTP API, driving virtual time from the wall clock at a
// configurable speedup.
//
// Examples:
//
//	amjsd -addr :8080 -machine flat:512 -policy adaptive:2d:1000 -speedup 60
//	amjsd -speedup inf                          # batch semantics: submit, then POST /v1/drain
//	amjsd -checkpoint /var/lib/amjsd/queue.json # queue survives restarts
//
// Endpoints: POST /v1/jobs (a JSON object submits one job; a JSON
// array batch-submits through the sharded ingest lanes with per-item
// results), GET|DELETE /v1/jobs/{id}, GET /v1/queue, GET /v1/machine,
// GET /v1/tuner (adaptive-policy snapshot with what-if decision log),
// GET /v1/events (streaming NDJSON job-event feed; ?user= and ?state=
// filter before buffering), POST /v1/drain, GET /metrics, /healthz,
// /readyz.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"amjs/internal/cli"
	"amjs/internal/core"
	"amjs/internal/server"
	"amjs/internal/units"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "amjsd: %v\n", err)
		os.Exit(1)
	}
}

// parseSpeedup accepts a float or "inf".
func parseSpeedup(s string) (float64, error) {
	if strings.EqualFold(s, "inf") {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad speedup %q (want a positive factor or \"inf\")", s)
	}
	return v, nil
}

// run builds and serves the daemon until ctx is cancelled, then shuts
// down gracefully (drain in-flight requests, checkpoint the queue).
// announce receives one line with the bound address once the listener
// is up, so scripts and tests can bind port 0 and discover the port.
func run(ctx context.Context, args []string, announce io.Writer) error {
	fs := flag.NewFlagSet("amjsd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		machineSpec = fs.String("machine", "intrepid", "machine model: "+strings.Join(cli.MachineSpecs, ", "))
		policySpec  = fs.String("policy", "easy", "policy: "+strings.Join(cli.PolicySpecs, ", "))
		speedupSpec = fs.String("speedup", "60", "virtual seconds per wall second, or \"inf\" for batch semantics")
		period      = fs.Duration("period", 10*time.Second, "scheduling pass period in virtual time (0 = event-driven)")
		checkEvery  = fs.Duration("check-interval", 30*time.Minute, "adaptive checking interval C_i in virtual time")
		tick        = fs.Duration("tick", 100*time.Millisecond, "wall-clock clock-advance granularity")
		checkpoint  = fs.String("checkpoint", "", "queue checkpoint file (restored on boot, written on shutdown)")
		lean        = fs.Bool("lean", true, "bound metric memory for long-lived sessions")
		logJSON     = fs.Bool("log-json", false, "emit JSON logs instead of text")
		logReqs     = fs.Bool("log-requests", true, "log every HTTP request (disable for load tests)")
		shards      = fs.Int("ingest-shards", 0, "sharded ingest lanes for batch submission (0 = default)")
		queue       = fs.Int("ingest-queue", 0, "per-lane staged-submission bound (0 = default)")
		maxBatch    = fs.Int("max-batch", 0, "POST /v1/jobs array-item cap (0 = default)")
		eventRing   = fs.Int("event-ring", 0, "per-subscriber /v1/events buffer (0 = default)")
		wiBudget    = fs.Duration("whatif-budget", 25*time.Millisecond, "wall-clock cap per what-if lookahead tick (0 = unbounded)")
		wiWorkers   = fs.Int("whatif-workers", 0, "what-if rollout fan-out (0 or 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	m, err := cli.ParseMachine(*machineSpec)
	if err != nil {
		return err
	}
	policy, err := cli.ParsePolicy(*policySpec)
	if err != nil {
		return err
	}
	speedup, err := parseSpeedup(*speedupSpec)
	if err != nil {
		return err
	}
	// What-if planner knobs must land before server.New: the daemon
	// clones the scheduler into its live session, and the clone copies
	// the planner's configuration at that moment. A live daemon caps
	// each lookahead tick with a wall-clock budget so the scheduling
	// loop's latency stays bounded; at speedup=inf the engine runs
	// batch semantics, where an unbounded deterministic tick is the
	// point, so the budget only applies to finite speedups.
	if tu, ok := policy.(*core.Tuner); ok {
		if p, ok := tu.WhatIfPlanner(); ok {
			if !math.IsInf(speedup, 1) {
				p.SetBudget(*wiBudget)
			}
			p.SetWorkers(*wiWorkers)
		}
	}

	d, err := server.New(server.Config{
		Machine:        m,
		Scheduler:      policy,
		CheckInterval:  units.Duration(checkEvery.Seconds()),
		SchedulePeriod: units.Duration(period.Seconds()),
		Speedup:        speedup,
		Tick:           *tick,
		CheckpointPath: *checkpoint,
		Lean:           *lean,
		IngestShards:   *shards,
		IngestQueue:    *queue,
		MaxBatch:       *maxBatch,
		EventRing:      *eventRing,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Close()
		return err
	}
	fmt.Fprintf(announce, "amjsd listening on %s\n", ln.Addr())
	api := server.NewAPI(d)
	api.SetRequestLogging(*logReqs)
	srv := &http.Server{Handler: api}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		d.Close()
		return err
	}

	// Stop accepting requests, then checkpoint the queue.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	return d.Close()
}
