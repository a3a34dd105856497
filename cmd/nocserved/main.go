// Command nocserved serves simulation-as-a-service: POST /run takes an
// experiment request (JSON: experiment id, scale, tenant, timeout) and
// returns the regenerated report — markdown, metrics, fingerprint — plus
// per-request cache accounting.
//
// Usage:
//
//	nocserved [-addr :8080] [-workers N] [-queue-per-tenant 4] [-max-queued 64]
//	          [-cachedir ~/.cache/heteronoc] [-cachesize bytes]
//	          [-drain-grace 2s] [-timeout 0] [-chaos spec] [-chaos-seed 1]
//
// Hardening: bounded per-tenant queues with fair dispatch (429 +
// Retry-After on overflow), per-worker panic isolation, request
// cancellation down to the simulator's cycle batches, and graceful
// shutdown: on SIGTERM the server waits -drain-grace for short runs, then
// cancels the rest and answers their clients 503 shutting_down with
// Retry-After. A retry against the restarted server re-simulates only the
// runs that were in flight (finished ones come from the -cachedir disk
// cache) and returns byte-identical artifacts. The -chaos flag arms fault
// injection (see internal/chaos.Parse) for soak testing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heteronoc/internal/chaos"
	"heteronoc/internal/runcache"
	"heteronoc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queuePerTenant := flag.Int("queue-per-tenant", 4, "queued jobs allowed per tenant")
	maxQueued := flag.Int("max-queued", 0, "global queued-job cap (0 = 8x workers)")
	timeout := flag.Duration("timeout", 0, "default per-run wall-time cap (0 = none)")
	cacheDir := flag.String("cachedir", runcache.DefaultDir(), "persistent run-cache directory ('' or 'none' disables the disk tier)")
	cacheSize := flag.Int64("cachesize", 256<<20, "disk cache byte cap, LRU-evicted (0 = unlimited)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "shutdown: wait this long for runs to finish before cancelling them")
	chaosSpec := flag.String("chaos", "", "fault injection spec, e.g. 'worker.panic=p0.1+panic,disk.load.slow=d50ms' (soak testing)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos RNG seed")
	flag.Parse()

	if err := runcache.SetDir(*cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "warning: disk cache disabled: %v\n", err)
	}
	runcache.SetMaxBytes(*cacheSize)

	var ch *chaos.Chaos
	if *chaosSpec != "" {
		var err error
		ch, err = chaos.Parse(*chaosSpec, *chaosSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runcache.SetChaos(ch)
		fmt.Fprintf(os.Stderr, "chaos armed: %v\n", ch.Points())
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueuePerTenant: *queuePerTenant,
		MaxQueued:      *maxQueued,
		DefaultTimeout: *timeout,
		DrainGrace:     *drainGrace,
		Chaos:          ch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Hardened listener: header/read/write/idle timeouts bound what a
	// slow or hostile client can hold open. WriteTimeout stays generous —
	// a cold full-scale run takes minutes before its response bytes move.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(ln)
	fmt.Fprintf(os.Stderr, "nocserved listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "shutting down: draining, then cancelling long runs...")

	sdCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	hs.Shutdown(sdCtx)
}
