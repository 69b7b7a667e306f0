package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// repoRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares `module repro`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro checkout: no go.mod with `module repro` above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles the unmodified cmd/server into the checkout's
// .bench_build directory and returns the binary's path and the build time.
// A repeat build is a cache hit; only the first in a checkout compiles.
func buildServer(ctx context.Context, root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "multiem-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// serverProc is one running cmd/server. Every one started is either stopped
// or killed by its owner; the run's process registry (run.go) sweeps any
// that an error path left behind.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	debug  string // the -debug-addr listener, same form
	logBuf *bytes.Buffer
	exited chan struct{} // closed once Wait returned
}

// startServer launches the server on a free loopback port and returns once
// /readyz answers 200.
func startServer(ctx context.Context, bin string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &serverProc{base: "http://" + addr, debug: "http://" + debugAddr, logBuf: &bytes.Buffer{}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-debug-addr", debugAddr, "-log-level", "warn"}, args...)...)
	p.cmd.Stdout = p.logBuf
	p.cmd.Stderr = p.logBuf
	// The server dies with the harness even when the harness is killed
	// outright and cannot run its own cleanup.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait() // the exit status of a killed server carries no information
		close(p.exited)
	}()
	if err := p.waitReady(ctx); err != nil {
		p.kill()
		return nil, fmt.Errorf("server %v: %w\n%s", args, err, p.logBuf)
	}
	return p, nil
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (p *serverProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.exited:
			return errors.New("exited before it was ready")
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("not ready after 60s")
}

// stop shuts the server down gracefully (SIGTERM: drain, flush the WAL) and
// waits for it; a server that ignores the signal for 20 s is killed.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
	}
}

// kill is the crash: SIGKILL, then wait until the process is gone.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// liveHeapMiB is the server's heap right after a collection: the memory the
// state itself needs. The admin listener's heap profile endpoint runs the
// collection (?gc=1); the gauge is then read from /metrics. Unlike the
// resident-set peak, which lands anywhere between one and two times this
// depending on where the collector's cycle stood, it repeats exactly.
func (p *serverProc) liveHeapMiB() (float64, error) {
	// Two collections: the first only moves pooled search scratch to the
	// pools' victim caches, the second frees it.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(p.debug + "/debug/pprof/heap?gc=1")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/debug/pprof/heap: %s", resp.Status)
		}
	}
	exp, err := p.scrape()
	if err != nil {
		return 0, err
	}
	return exp.Value("multiem_go_heap_alloc_bytes") / (1 << 20), nil
}

// scrape reads and parses the server's /metrics.
func (p *serverProc) scrape() (*obs.Exposition, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParseExposition(resp.Body)
}

// get fetches a path and returns the body; a non-200 is an error.
func (p *serverProc) get(path string) ([]byte, error) {
	resp, err := http.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
