package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// The benchmark reads the child's CPU time and resident set from /proc,
// so it runs on Linux only.

// child is one mdserve process started with default flags on a free
// loopback port. Its stderr goes to a log file; exited closes when the
// process has been reaped, so a server that dies mid-run is noticed
// instead of yielding partial metrics.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// children tracks every live child so that a signal or a panic on any
// path kills and reaps them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// readyPoll is how often start polls /readyz: well under the 5 ms that
// would show up in a 3 s set-up as quantisation.
const readyPoll = 2 * time.Millisecond

// startChild launches bin and waits until it answers /readyz. mdserve
// logs the address it was given, not the one it bound, so ":0" cannot be
// discovered; instead a free port is reserved, released and handed over,
// and the rare loser of that race (the child exits before it is ready)
// is retried on a new port.
func startChild(bin, logPath string) (*child, error) {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		c, err := startChildOnce(bin, logPath)
		if err == nil {
			return c, nil
		}
		last = err
	}
	return nil, fmt.Errorf("starting %s: %w", bin, last)
}

func startChildOnce(bin, logPath string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark itself is killed outright, the kernel takes the
	// server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			c.stop()
			return nil, fmt.Errorf("server exited before it was ready: %v (see %s)", c.err, logPath)
		default:
		}
		resp, err := probe.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(readyPoll)
	}
	c.stop()
	return nil, errors.New("server not ready after 20s")
}

// stop kills the child and returns once it has been reaped. It is safe
// to call more than once and from the signal handler.
func (c *child) stop() {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
	_ = c.cmd.Process.Kill() // already exited: nothing to kill
	<-c.exited
	c.log.Close()
}

// alive reports an error if the child has exited.
func (c *child) alive() error {
	select {
	case <-c.exited:
		return fmt.Errorf("server died mid-run: %v", c.cmd.ProcessState)
	default:
		return nil
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/pid/stat; it is
// 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuSeconds returns the child's user+system CPU time.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numeric fields start after the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// statusMB returns a kB field of the child's /proc status in MB: "VmRSS",
// the resident set now, or "VmHWM", its peak.
func (c *child) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}
