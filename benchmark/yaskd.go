package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds or writes, inside the
// checkout it runs from.
const buildDir = ".bench_build"

// The two programs the benchmark builds, by import path so the build
// works from any directory of the module.
const (
	yaskdPkg  = "github.com/yask-engine/yask/cmd/yaskd"
	layersPkg = "github.com/yask-engine/yask/benchmark/layers"
)

// goBuild compiles one main package of the module into dir and returns
// the binary's absolute path.
func goBuild(pkg, dir string) (string, error) {
	out, err := filepath.Abs(filepath.Join(dir, filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return out, nil
}

// yaskd is one running server process.
type yaskd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
	dead bool
}

// startYaskd execs the server with args plus a free loopback -addr and
// returns once GET /api/readyz answers 200, with the time that took:
// the set-up a user of the service waits for. Output goes to logPath.
func startYaskd(bin, logPath string, args ...string) (*yaskd, time.Duration, error) {
	// Reserve a port by binding it and letting go; nothing else on a
	// benchmark box races for it in the microseconds before yaskd binds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	y := &yaskd{
		cmd:  exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base: "http://" + addr,
		log:  logf,
		done: make(chan error, 1), // one send, so the waiter never blocks
	}
	y.cmd.Stdout, y.cmd.Stderr = logf, logf
	begin := time.Now()
	if err := y.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() { y.done <- y.cmd.Wait() }()
	for {
		resp, err := http.Get(y.base + "/api/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return y, time.Since(begin), nil
			}
		}
		select {
		case err := <-y.done:
			logf.Close()
			return nil, 0, fmt.Errorf("yaskd exited during boot (%v); see %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(begin) > 90*time.Second {
			y.kill()
			return nil, 0, fmt.Errorf("yaskd not ready after 90s; see %s", logPath)
		}
	}
}

// kill SIGKILLs the server and waits until it is gone; a second call is
// a no-op. The benchmark never needs a graceful stop: memory-only
// servers have nothing to flush, and for the durable one the hard kill
// is the point.
func (y *yaskd) kill() {
	if y.dead {
		return
	}
	y.dead = true
	_ = y.cmd.Process.Kill() // already-exited is the only failure, and fine
	<-y.done
	y.log.Close()
}

// peakRSSMiB reads the server's high-water resident set from /proc.
func (y *yaskd) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", y.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status: %v", sc.Err())
}

// serverStats is the part of GET /api/stats the per-layer counts come
// from. Every field is a monotonic counter or a gauge of the process.
type serverStats struct {
	Engine struct {
		Objects  int `json:"objects"`
		Live     int `json:"live"`
		PerShard []struct {
			SetNodeAccesses int64 `json:"setNodeAccesses"`
			KcNodeAccesses  int64 `json:"kcNodeAccesses"`
			SetSigProbes    int64 `json:"setSigProbes"`
			SetSigHits      int64 `json:"setSigHits"`
			KcSigProbes     int64 `json:"kcSigProbes"`
			KcSigHits       int64 `json:"kcSigHits"`
		} `json:"perShard"`
		Cache *struct {
			Bytes          int64 `json:"bytes"`
			Hits           int64 `json:"hits"`
			Misses         int64 `json:"misses"`
			Evictions      int64 `json:"evictions"`
			OrphanedEpochs int64 `json:"orphanedEpochs"`
		} `json:"cache"`
		Durability *struct {
			WalAppends      int64 `json:"walAppends"`
			WalFsyncs       int64 `json:"walFsyncs"`
			WalBytes        int64 `json:"walBytes"`
			Checkpoints     int64 `json:"checkpoints"`
			ReplayedRecords int   `json:"replayedRecords"`
		} `json:"durability"`
	} `json:"engine"`
	Admission struct {
		Admitted int64 `json:"admitted"`
		Shed     int64 `json:"shed"`
	} `json:"admission"`
}

func (y *yaskd) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(y.base + "/api/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /api/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /api/stats: %w", err)
	}
	if len(st.Engine.PerShard) == 0 {
		return st, fmt.Errorf("/api/stats has no perShard row")
	}
	return st, nil
}
