package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process handling: the harness builds misam-train and misam-serve from
// the checkout, runs them as real processes and owns their lifetime.

// procs tracks every child so that any exit path can stop them all.
type procs struct {
	mu   sync.Mutex
	live []*serverProc
}

// buildBinaries compiles the two programs under test into outDir/bin.
// The benchmark module replaces "misam" with the parent directory, so
// this is always the checkout's own source.
func buildBinaries(ctx context.Context, outDir string) (train, serve string, err error) {
	bin := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"misam/cmd/misam-train", "misam/cmd/misam-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build: %w\n%s", err, out)
	}
	return filepath.Join(bin, "misam-train"), filepath.Join(bin, "misam-serve"), nil
}

// trainSizes are misam-train's corpus flags.
type trainSizes struct{ corpus, latency, maxDim int }

// trainModel runs misam-train (seed 1) and returns its wall time. The
// model bytes depend only on the sizes, so every run serves the same
// trees.
func trainModel(ctx context.Context, trainBin, model, logPath string, sz trainSizes) (time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.CommandContext(ctx, trainBin, "-o", model, "-seed", "1",
		"-corpus", strconv.Itoa(sz.corpus), "-latency-corpus", strconv.Itoa(sz.latency),
		"-maxdim", strconv.Itoa(sz.maxDim))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("misam-train: %w (see %s)", err, logPath)
	}
	return time.Since(t0), nil
}

// serverProc is one running misam-serve.
type serverProc struct {
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:port
	logf *os.File
	done chan struct{} // closed when the process has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// portFree reports whether a loopback port can be bound right now.
func portFree(port int) bool {
	l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		return false
	}
	l.Close()
	return true
}

// start launches misam-serve on addr with args and waits for /healthz.
// Output goes to a log file, never to an inherited pipe: a pipe held by a
// surviving child would keep whoever waits on the harness's output
// hanging after a crash. Pdeathsig makes the kernel kill the child if the
// harness dies without running its cleanup.
func (ps *procs) start(ctx context.Context, serveBin, logPath string, port int, args ...string) (*serverProc, time.Duration, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return nil, 0, fmt.Errorf("port %d is held by a process this harness did not start", port)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, url: "http://" + addr, logf: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the harness kills its servers
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()

	for {
		select {
		case <-p.done:
			// If another process grabbed the port after the probe, our
			// child fails to bind and exits; its healthz would be theirs.
			return nil, 0, fmt.Errorf("misam-serve exited during start-up (see %s)", logPath)
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		default:
		}
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				select {
				case <-p.done:
					continue // the answer came from someone else
				default:
					return p, time.Since(t0), nil
				}
			}
		}
		if time.Since(t0) > 30*time.Second {
			return nil, 0, fmt.Errorf("misam-serve on %s not healthy after 30 s (see %s)", addr, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopAll terminates every live child and waits until each is reaped:
// SIGTERM first so the server drains, SIGKILL if it has not gone within
// two seconds.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, p := range live {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	}
	for _, p := range live {
		select {
		case <-p.done:
		case <-time.After(2 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.logf.Close()
	}
}

// procUsage is what /proc says about one process.
type procUsage struct {
	cpu    time.Duration // utime + stime
	peakMB float64       // VmHWM
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go supports

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return u, errors.New("unexpected /proc/pid/stat layout")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("unexpected /proc/pid/stat layout")
	}
	u.cpu = time.Duration((ut + st) / clockTick * float64(time.Second))

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return u, fmt.Errorf("VmHWM: %w", err)
			}
			u.peakMB = kb / 1024
		}
	}
	return u, nil
}
