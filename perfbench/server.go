package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one certserver process booted for a single benchmark run (or
// one set-up repetition), so its peak RSS and its caches never carry
// over from an earlier run.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startServer launches bin on a free loopback port and waits until
// /healthz answers.
func startServer(bin string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-quiet")
	// If the benchmark itself is killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// The server's own stdout carries its start and summary lines; keep
	// them off ours, whose last line is the benchmark result.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start certserver: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clientsMax,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := s.healthz(); err == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("certserver exited during start-up: %v", s.err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("certserver did not answer /healthz within 15s")
		}
	}
}

// clientsMax is the most connections any workload opens: the host's two
// CPUs, one closed-loop client each.
const clientsMax = 2

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

// stop interrupts the server (it drains and exits), kills it if it has
// not exited within 10s, and waits for the process either way.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reaps it either way
		<-s.exited
	}
}

// post sends one request and returns its status, body and client-side
// lifetime.
func (s *server) post(path, contentType string, body []byte) (int, []byte, interval, error) {
	iv := interval{start: time.Now()}
	resp, err := s.client.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		iv.end = time.Now()
		return 0, nil, iv, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	iv.end = time.Now()
	if err != nil {
		return 0, nil, iv, fmt.Errorf("read %s response: %w", path, err)
	}
	return resp.StatusCode, data, iv, nil
}

// health is the subset of GET /healthz the benchmark reads.
type health struct {
	Admission struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Decomps struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Size   int   `json:"size"`
	} `json:"decompositions"`
}

func (s *server) healthz() (health, error) {
	var h health
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("/healthz: %w", err)
	}
	return h, nil
}

// peakRSSMB reads the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read server VmHWM: %w", err)
	}
	return 0, errors.New("server status has no VmHWM line")
}
