// Command nocload load-tests a running nocserved and prints an SLO
// report: latency percentiles, throughput, warm-cache hit ratio, retries
// and an error histogram.
//
// Usage:
//
//	nocload -url http://127.0.0.1:8080 [-n 32] [-c 4] [-exp fig1,fig7]
//	        [-scale quick] [-tenants a,b,c] [-timeout 0] [-json]
//
// The client retries shed (429), draining/shutting_down (503) and
// worker-panic (500) responses with capped exponential backoff and full
// jitter, so the report measures what a well-behaved caller experiences
// against a loaded or chaos-injected server.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heteronoc/internal/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "nocserved base URL")
	n := flag.Int("n", 32, "total requests")
	c := flag.Int("c", 4, "concurrent requests")
	exps := flag.String("exp", "fig1", "comma list of experiment ids to cycle through")
	scale := flag.String("scale", "quick", "scale preset sent with every request")
	tenants := flag.String("tenants", "default", "comma list of tenant names to cycle through")
	timeoutSec := flag.Float64("timeout", 0, "per-request run timeout in seconds (0 = server default)")
	attempts := flag.Int("attempts", 6, "max attempts per request (retries on 429/503/panic)")
	jsonOut := flag.Bool("json", false, "print the SLO report as JSON metrics")
	seed := flag.Int64("seed", 1, "retry-jitter seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &serve.Client{
		BaseURL:     strings.TrimRight(*url, "/"),
		MaxAttempts: *attempts,
		BaseDelay:   100 * time.Millisecond,
		Seed:        *seed,
	}
	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		Client:      client,
		Experiments: strings.Split(*exps, ","),
		Scale:       *scale,
		Tenants:     strings.Split(*tenants, ","),
		Requests:    *n,
		Concurrency: *c,
		TimeoutSec:  *timeoutSec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *jsonOut {
		data, _ := json.MarshalIndent(rep.Metrics(), "", "  ")
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.String())
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
