package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat.
// USER_HZ is 100 on every Linux ABI Go supports; reading it properly
// needs sysconf, which needs cgo.
const clockTick = 100

// buildQuaked compiles cmd/quaked into dir. The build is not part of
// any metric.
func buildQuaked(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "quaked")
	out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/quaked").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building quaked: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running quaked.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	http *http.Client
	log  *firstLine
}

// firstLine is the child's stdout: it hands over the first line (which
// carries the bound address) and keeps only a short tail of the rest
// for error messages.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	line chan string
	sent bool
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.buf = append(f.buf, p...)
	if !f.sent {
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.sent = true
			f.line <- string(f.buf[:i])
		}
	}
	if len(f.buf) > 4096 {
		f.buf = append(f.buf[:0], f.buf[len(f.buf)-2048:]...)
	}
	return len(p), nil
}

func (f *firstLine) tail() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return string(f.buf)
}

// startChild spawns quaked on a free loopback port and returns once
// /healthz answers. conns bounds the connections the load will use.
func startChild(ctx context.Context, bin string, flags []string, conns int) (*child, error) {
	log := &firstLine{line: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stdout = log
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting quaked: %w", err)
	}
	c := &child{cmd: cmd, log: log, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
	select {
	case line := <-log.line:
		// "quaked: serving on http://127.0.0.1:41739/ (solves under …"
		_, rest, ok := strings.Cut(line, "http://")
		addr, _, ok2 := strings.Cut(rest, "/")
		if !ok || !ok2 {
			c.stop()
			return nil, fmt.Errorf("quaked did not announce its address: %q", line)
		}
		c.base = "http://" + addr
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("quaked did not start within 30s: %s", log.tail())
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := c.get(ctx, "/healthz")
		if err == nil && resp.StatusCode == http.StatusOK {
			return c, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("quaked /healthz never answered: %v", err)
		}
	}
}

// stop ends the child: SIGTERM for a graceful drain, SIGKILL if that
// takes too long. It returns once the process has been reaped.
func (c *child) stop() {
	if c == nil || c.cmd.ProcessState != nil {
		return
	}
	c.http.CloseIdleConnections()
	c.cmd.Process.Signal(syscall.SIGTERM) // an error means it is already gone
	done := make(chan struct{})
	go func() {
		c.cmd.Wait() // the exit status of a stopped server carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// get fetches a path and drains the body into the response.
func (c *child) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, err
}

// procCPU reads the child's cumulative user and system CPU seconds.
func (c *child) procCPU() (user, sys float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis, which makes utime and stime the
	// 12th and 13th after it.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, 0, fmt.Errorf("unexpected /proc stat format: %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unexpected /proc stat format: %q", raw)
	}
	return ut / clockTick, st / clockTick, nil
}

// procMem reads the child's peak (VmHWM) and current (VmRSS) resident
// set in MB.
func (c *child) procMem() (hwm, rss float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmHWM:":
			hwm = kb / 1024
		case "VmRSS:":
			rss = kb / 1024
		}
	}
	if hwm == 0 {
		return 0, 0, fmt.Errorf("no VmHWM in /proc status")
	}
	return hwm, rss, nil
}

// scrape is one reading of everything the child exposes about itself:
// its obs registry, its Go runtime memstats, and the OS's view of it.
type scrape struct {
	obs obs.Snapshot
	// mem holds the fields of runtime.MemStats the proc layer reports.
	mem struct {
		TotalAlloc   uint64
		Mallocs      uint64
		NumGC        uint32
		PauseTotalNs uint64
	}
	cpuUser, cpuSys float64
	rssMB           float64
}

func (c *child) scrape(ctx context.Context) (*scrape, error) {
	s := &scrape{}
	resp, err := c.get(ctx, "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics.json: %w", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s.obs); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	resp, err = c.get(ctx, "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("scraping /debug/vars: %w", err)
	}
	vars := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars["memstats"], &s.mem); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	if s.cpuUser, s.cpuSys, err = c.procCPU(); err != nil {
		return nil, err
	}
	if _, s.rssMB, err = c.procMem(); err != nil {
		return nil, err
	}
	return s, nil
}
