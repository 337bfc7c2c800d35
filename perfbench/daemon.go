package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"quicksand/internal/bgpd"
)

// daemon is one `quicksand serve` process under test, with the single
// keep-alive HTTP connection the benchmark talks to it over.
type daemon struct {
	cmd      *exec.Cmd
	bgpAddr  string
	httpAddr string
	client   *http.Client
	dials    atomic.Int64 // HTTP connections opened; the budget is one
	exited   chan struct{}
	waitErr  error
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches `bin serve` with every flag at its default except
// the loopback listeners, the watchlist and a 4-byte local ASN, and
// returns once its HTTP API answers.
func startDaemon(bin, watchFile, logFile string) (*daemon, error) {
	bgpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logFile)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	d := &daemon{bgpAddr: bgpAddr, httpAddr: httpAddr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "serve",
		"-watch", watchFile,
		"-listen-bgp", bgpAddr,
		"-listen-http", httpAddr,
		"-asn", strconv.Itoa(daemonASN))
	d.cmd.Stdout, d.cmd.Stderr = log, log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	d.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err == nil {
					d.dials.Add(1)
				}
				return c, err
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := d.get("/healthz"); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start-up (%v); see %s", d.waitErr, logFile)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer on %s within 60s", httpAddr)
		}
	}
}

// get fetches path from the daemon's HTTP API and returns the body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get("http://" + d.httpAddr + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape reads and parses /metrics.
func (d *daemon) scrape() (promSample, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// accounted returns updates ingested plus updates dropped under a named
// reason: every update the daemon has accounted for.
func accounted(s promSample) float64 {
	return s["monitord_updates_ingested_total"] + s.sumPrefix("monitord_updates_dropped_total")
}

// waitAccounted polls /metrics until the daemon has accounted for want
// updates, returning the last scrape. Accounting for more than want is an
// error: the daemon counted updates nobody sent.
func (d *daemon) waitAccounted(want float64, timeout time.Duration) (promSample, error) {
	deadline := time.Now().Add(timeout)
	for {
		s, err := d.scrape()
		if err != nil {
			return nil, err
		}
		switch got := accounted(s); {
		case got == want:
			return s, nil
		case got > want:
			return s, fmt.Errorf("daemon accounted for %.0f updates, %.0f were sent", got, want)
		case time.Now().After(deadline):
			return s, fmt.Errorf("daemon accounted for %.0f of %.0f sent updates after %v", got, want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down with SIGTERM, as an operator would, and
// waits for it to exit; a daemon that has not drained within 15s is
// killed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("daemon ignored SIGTERM for 15s and was killed")
	}
}

// openSession dials the daemon's BGP listener and establishes the
// generator's session. Both ends use 4-byte ASNs, so AS4 must be
// negotiated; hold time 0 keeps the saturated writer from being torn
// down for not reading keepalives.
func openSession(addr string) (*bgpd.Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN:   genASN,
		BGPID: netip.AddrFrom4([4]byte{203, 0, 113, 7}),
		AS4:   true,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !sess.AS4() {
		sess.Close()
		return nil, fmt.Errorf("AS4 was not negotiated with the daemon")
	}
	return sess, nil
}
