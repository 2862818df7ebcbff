package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/motion"
	"repro/internal/obs"
)

func TestServerRunsForConfiguredSlots(t *testing.T) {
	err := run([]string{
		"-tcp", "127.0.0.1:0", "-udp", "127.0.0.1:0",
		"-slots", "5", "-slotms", "2", "-algo", "dvgreedy",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServerBadAlgo(t *testing.T) {
	if err := run([]string{"-algo", "nope"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestServerBadFlags(t *testing.T) {
	if err := run([]string{"-slots", "x"}); err == nil {
		t.Fatal("bad flag should error")
	}
}

// freePort reserves an ephemeral loopback port and returns it. The listener
// is closed before returning, so a tiny race with other tests is possible but
// harmless on loopback.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServerObservabilityEndpointsWhileStreaming starts the full binary
// entrypoint with -http, streams to it with a real client, and fetches
// /metrics and /debug/slots mid-stream.
func TestServerObservabilityEndpointsWhileStreaming(t *testing.T) {
	tcpAddr, udpAddr, httpAddr := freePort(t), freePort(t), freePort(t)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-tcp", tcpAddr, "-udp", udpAddr, "-http", httpAddr,
			"-slots", "600", "-slotms", "2", "-algo", "dvgreedy",
		})
	}()

	// Stream a real client in the background while we poll the endpoints.
	clientDone := make(chan error, 1)
	go func() {
		ccfg := client.DefaultConfig(1, tcpAddr,
			motion.Generate(motion.Scenes()[0], 1, 700, 500, 3))
		ccfg.SlotDuration = 2 * time.Millisecond
		ccfg.Slots = 250
		for i := 0; i < 100; i++ { // wait for the control listener
			if conn, err := net.Dial("tcp", tcpAddr); err == nil {
				conn.Close()
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		_, err := client.Run(ccfg)
		clientDone <- err
	}()

	// Poll /metrics until the slot loop is visibly serving the client.
	var metricsBody string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + httpAddr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			metricsBody = string(b)
			if strings.Contains(metricsBody, "collabvr_server_tiles_sent_total") &&
				!strings.Contains(metricsBody, "collabvr_server_tiles_sent_total 0\n") {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		"collabvr_server_slots_total",
		"collabvr_server_sessions_active 1",
		"collabvr_server_alloc_level_count",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}

	resp, err := http.Get("http://" + httpAddr + "/debug/slots?n=8")
	if err != nil {
		t.Fatal(err)
	}
	var slots struct {
		Summary obs.Summary      `json:"summary"`
		Recent  []obs.SlotRecord `json:"recent"`
	}
	err = json.NewDecoder(resp.Body).Decode(&slots)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if slots.Summary.Records == 0 || len(slots.Recent) == 0 {
		t.Fatalf("/debug/slots empty mid-stream: %+v", slots.Summary)
	}
	if slots.Recent[0].Algorithm != "dvgreedy" {
		t.Errorf("recent record = %+v", slots.Recent[0])
	}

	if err := <-clientDone; err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}
