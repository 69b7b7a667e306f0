// Command server exposes the MultiEM online matching subsystem as an HTTP
// JSON service. At startup it either loads a matcher saved by cmd/multiem
// (-load-index) or runs the full pipeline on a dataset (-data / -dataset),
// then answers concurrent queries:
//
//	POST /match   {"values": ["paris", "2.35", "48.85"], "k": 3}
//	POST /add     {"records": [["paris", "2.35", "48.85"]]}
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//	GET  /readyz
//
// The listener comes up before the matcher: /healthz reports liveness
// immediately, while /readyz (and the data endpoints) answer 503 until the
// pipeline build or WAL recovery completes — so an orchestrator never routes
// traffic to a replica that is still replaying its log, and restart scripts
// poll readiness instead of sleeping.
//
// With -wal-dir the matcher is durable: every /add batch is appended as one
// record to a write-ahead log (fsync policy via -fsync) before it is applied,
// snapshots checkpoint the state on -snapshot-interval, and a restart with
// the same -wal-dir replays the log so no acknowledged ingest is lost — the
// recovered state is bit-identical to the pre-crash matcher. SIGINT/SIGTERM
// drain in-flight requests and flush the log before exit.
//
// Observability: /metrics serves the Prometheus catalogue (see metrics.go
// and docs/OPERATIONS.md), logs go through log/slog (-log-level,
// -log-format), requests slower than -slow-match / -slow-ingest log a
// per-stage latency breakdown (sampled 1-in--slow-sample), and -debug-addr
// opens a separate admin listener with net/http/pprof and a /metrics copy —
// kept off the data port so profiling can stay unexposed in production.
//
// Usage:
//
//	server -dataset Geo -scale 0.3 -addr :8080
//	server -load-index matcher.bin -wal-dir ./wal -fsync always
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/multiem"
	"repro/internal/repl"
	"repro/internal/vector"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		loadIndex   = flag.String("load-index", "", "load a matcher saved by cmd/multiem or -save-index")
		saveIndex   = flag.String("save-index", "", "save the matcher after startup (and after building)")
		dataDir     = flag.String("data", "", "dataset directory (source-*.csv [+ truth.csv])")
		dataset     = flag.String("dataset", "", "synthetic benchmark name (Geo, Music-20, ...)")
		scale       = flag.Float64("scale", 0.1, "generation scale for -dataset")
		seed        = flag.Int64("seed", 1, "random seed")
		k           = flag.Int("k", 1, "mutual top-K width")
		m           = flag.Float64("m", 0.5, "merge distance threshold (cosine) of a matcher built from -dataset or -data; a loaded, recovered or following matcher absorbs under the M its file holds, and an explicit -m that differs from it refuses to start")
		parallel    = flag.Bool("parallel", true, "build with MultiEM(parallel)")
		shards      = flag.Int("shards", 0, "matcher hash shards (0 = GOMAXPROCS; ignored with -load-index)")
		efSearch    = flag.Int("efsearch", 0, "HNSW query beam width for /match (0 = backend default; applies to built and loaded matchers)")
		maxAddBytes = flag.Int64("max-add-bytes", defaultMaxAddBytes, "max /add request body size in bytes (larger batches get 413)")

		walDir        = flag.String("wal-dir", "", "durability directory: write-ahead logs + snapshots; empty disables durability")
		fsync         = flag.String("fsync", "interval", "WAL fsync policy: always | interval | off")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync timer for -fsync interval")
		snapInterval  = flag.Duration("snapshot-interval", 5*time.Minute, "background snapshot cadence (0 disables; snapshots truncate the WAL)")
		snapKeep      = flag.Int("snapshot-keep", 2, "checkpoints to retain (newest first); older ones are deleted after each snapshot")

		role         = flag.String("role", "primary", "replication role: primary | follower")
		primaryURL   = flag.String("primary-url", "", "primary base URL (required with -role follower)")
		followPoll   = flag.Duration("follow-poll", 250*time.Millisecond, "follower steady-state fetch interval")
		promoteAfter = flag.Duration("promote-after", 0, "follower self-promotes after the primary is unreachable this long (0 = manual /promote only)")
		warmupK      = flag.Int("warmup", 8, "probe matches run before /readyz flips after recovery, bootstrap, or promotion (0 disables)")

		debugAddr  = flag.String("debug-addr", "", "admin listener with /debug/pprof/* and /metrics; empty disables")
		logLevel   = flag.String("log-level", "info", "log level: debug | info | warn | error")
		logFormat  = flag.String("log-format", "text", "log format: text | json")
		slowMatch  = flag.Duration("slow-match", 500*time.Millisecond, "log a stage breakdown for /match requests at or above this latency (0 disables)")
		slowIngest = flag.Duration("slow-ingest", 5*time.Second, "log a stage breakdown for ingest batches at or above this latency (0 disables)")
		slowSample = flag.Int("slow-sample", 10, "log one in every N slow requests (<= 1 logs all)")
	)
	flag.Parse()

	if err := setupLogging(*logLevel, *logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(1)
	}

	// A file holds its own M; an explicit -m unlike it is fatal.
	mGiven := false
	flag.Visit(func(f *flag.Flag) { mGiven = mGiven || f.Name == "m" })
	checkM := func(matcher *repro.Matcher) {
		if mGiven && matcher.M() != float32(*m) {
			fatal("-m differs from the M the matcher's file holds; drop -m or pass the file's", "m", *m, "file_m", matcher.M())
		}
	}

	// Slow-request logging must be configured before any matcher exists:
	// matchers adopt the config at creation (recovery, follower bootstrap,
	// and promotion all build fresh instances).
	multiem.SetSlowLog(slog.Default(), *slowMatch, *slowIngest, *slowSample)

	opt := repro.DefaultOptions()
	opt.K = *k
	opt.M = float32(*m)
	opt.Parallel = *parallel
	opt.Seed = *seed
	opt.Shards = *shards
	if *efSearch > 0 {
		opt.HNSW.EfSearch = *efSearch
	}

	slog.Info("starting", "kernels", vector.Kernels(), "role", *role,
		"shards", *shards, "addr", *addr, "wal_dir", *walDir)

	// Bind and serve before the matcher exists: a pipeline build or WAL
	// replay can take minutes, and during it the process must answer
	// /healthz (alive) and /readyz (503, starting) instead of refusing
	// connections. Data endpoints 503 until the matcher is installed.
	s := newServer(*maxAddBytes)
	s.walDir = *walDir
	s.warmupK = *warmupK
	s.primaryHint = *primaryURL
	srv := &http.Server{
		Handler: s.handler(),
		// Bound slow clients: without these a stalled connection pins a
		// goroutine forever (slowloris).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	// The admin listener is separate from the data port on purpose:
	// pprof exposes memory contents and must not ride on a port that is
	// load-balanced to clients. It binds before the server reports itself
	// listening, so one that cannot have the port it was given exits.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal("debug listen failed", "addr", *debugAddr, "err", err)
		}
		go func() {
			if err := http.Serve(dln, debugMux(s)); err != nil {
				slog.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		slog.Info("debug listener on", "addr", *debugAddr)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	slog.Info("listening (not ready: matcher starting)", "addr", *addr)

	cfg := repro.WALConfig{
		Dir:              *walDir,
		Fsync:            *fsync,
		FsyncInterval:    *fsyncInterval,
		SnapshotInterval: *snapInterval,
		SnapshotKeep:     *snapKeep,
	}
	var follower *repl.Follower
	switch *role {
	case "follower":
		// A follower builds nothing: it bootstraps from the primary's
		// newest snapshot (or its own mirror, when restarting) and chases
		// the shipped WAL. -wal-dir is the mirror directory — on promotion
		// it becomes this node's durability directory as-is.
		if *primaryURL == "" || *walDir == "" {
			fatal("-role follower requires -primary-url and -wal-dir (the mirror directory)")
		}
		if *loadIndex != "" || *dataDir != "" || *dataset != "" {
			fatal("a follower takes no data source; its state comes from the primary")
		}
		follower, err = repl.Start(repl.Config{
			PrimaryURL:    *primaryURL,
			Dir:           *walDir,
			Opt:           opt,
			WAL:           cfg,
			Poll:          *followPoll,
			PromoteAfter:  *promoteAfter,
			OnAutoPromote: func() { s.finishPromotion(follower) },
			Logf:          func(format string, v ...any) { slog.Info(fmt.Sprintf(format, v...)) },
		})
		if err != nil {
			fatal("follower start failed", "err", err)
		}
		s.setFollower(follower)
		// Readiness waits for the bootstrap: once the follower publishes a
		// matcher, run the warmup probes and flip /readyz.
		go func() {
			for follower.Matcher() == nil && !follower.Promoted() {
				time.Sleep(50 * time.Millisecond)
			}
			checkM(follower.Matcher()) // promotion, too, needs a bootstrap
			s.warmup()
			st := follower.Stats()
			slog.Info("ready: following", "primary", *primaryURL, "next_seq", st.NextSeq, "lag_batches", st.LagBatches, "m", s.currentMatcher().M())
		}()
		slog.Info("follower: mirroring", "primary", *primaryURL, "dir", *walDir,
			"poll", *followPoll, "auto_promote", *promoteAfter)

	case "primary":
		base := func() (*repro.Matcher, error) {
			return loadOrBuild(*loadIndex, *dataDir, *dataset, *scale, *seed, opt)
		}
		var matcher *repro.Matcher
		if *walDir != "" {
			matcher, err = repro.RecoverMatcher(cfg, opt, base)
			if err == nil {
				ws := matcher.WALStats()
				slog.Info("durability on", "wal_dir", ws.Dir, "fsync", ws.Fsync,
					"segments", ws.Segments, "bytes", ws.Bytes,
					"next_seq", ws.NextSeq, "snapshot_seq", ws.SnapshotSeq,
					"load_seconds", ws.LoadSeconds, "load_bytes", ws.LoadBytes,
					"replayed_batches", ws.ReplayedBatches, "replayed_rows", ws.ReplayedRows,
					"replay_seconds", ws.ReplaySeconds,
					"replay_reader_busy_seconds", ws.ReplayReaderBusySeconds,
					"replay_shard_busy_seconds", ws.ReplayShardBusySeconds)
			}
		} else {
			matcher, err = base()
		}
		if err != nil {
			fatal("matcher startup failed", "err", err)
		}
		checkM(matcher)
		if *saveIndex != "" {
			if err := repro.SaveMatcherFile(matcher, *saveIndex); err != nil {
				fatal("save failed", "path", *saveIndex, "err", err)
			}
			slog.Info("saved matcher", "path", *saveIndex)
		}
		s.setMatcher(matcher)
		if *walDir != "" {
			// With a WAL this node can feed followers: serve the
			// replication endpoints and adopt (or mint) a fencing term.
			p, err := repl.NewPrimary(matcher, *walDir)
			if err != nil {
				fatal("replication feed failed", "err", err)
			}
			s.setPrimary(p)
			slog.Info("replication feed on", "term", p.Term())
		}
		s.warmup()
		st := matcher.Stats()
		slog.Info("ready: serving", "entities", st.Entities, "tuples", st.Tuples,
			"matched", st.Matched, "singletons", st.Singletons,
			"shards", st.Shards, "attrs", fmt.Sprint(st.Attrs), "m", matcher.M())

	default:
		fatal("unknown -role (want primary or follower)", "role", *role)
	}

	// Graceful shutdown: drain in-flight requests, then flush and fsync the
	// WAL, so a deliberate stop never relies on crash recovery.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal("serve failed", "err", err)
	case <-ctx.Done():
		stop()
		slog.Info("shutting down: draining requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			slog.Warn("shutdown", "err", err)
		}
		if follower != nil {
			// Stop the fetch loop first; a promoted follower's matcher has
			// a live WAL that still needs the flush below.
			if err := follower.Close(); err != nil {
				slog.Warn("follower stop", "err", err)
			}
		}
		if m := s.currentMatcher(); m != nil {
			if err := m.CloseWAL(); err != nil {
				fatal("wal flush failed", "err", err)
			}
		}
		slog.Info("shutdown complete")
	}
}

// setupLogging installs the process-wide slog default. Everything —
// including the slow-request span breakdowns — goes through it, so
// -log-format json turns the whole stream machine-parseable.
func setupLogging(level, format string) error {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// debugMux is the admin surface: pprof plus a /metrics copy, so one
// scrape target works even when the data port is firewalled off.
func debugMux(s *server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

// loadOrBuild resolves the startup matcher: a saved index when -load-index
// is set, otherwise a fresh pipeline run over the requested dataset.
func loadOrBuild(loadIndex, dataDir, dataset string, scale float64, seed int64, opt repro.Options) (*repro.Matcher, error) {
	if loadIndex != "" {
		if dataDir != "" || dataset != "" {
			return nil, fmt.Errorf("use either -load-index or a dataset source, not both")
		}
		m, err := repro.LoadMatcherFile(loadIndex, opt)
		if err != nil {
			return nil, err
		}
		slog.Info("loaded matcher", "path", loadIndex)
		return m, nil
	}

	var (
		d   *repro.Dataset
		err error
	)
	switch {
	case dataDir != "" && dataset != "":
		return nil, fmt.Errorf("use either -data or -dataset, not both")
	case dataDir != "":
		d, err = repro.LoadDataset(dataDir)
	case dataset != "":
		d, err = repro.GenerateDataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("one of -load-index, -data or -dataset is required")
	}
	if err != nil {
		return nil, err
	}
	slog.Info("building matcher", "dataset", d.Name, "sources", d.NumSources(), "entities", d.NumEntities())
	m, err := repro.BuildMatcher(d, opt)
	if err != nil {
		return nil, err
	}
	slog.Info("pipeline done", "took", m.Result().Timings.Total.Round(time.Millisecond))
	return m, nil
}
