package controlplane

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/geom"
)

func testArray(n int) *element.Array {
	elems := make([]*element.Element, n)
	for i := range elems {
		elems[i] = &element.Element{Pos: geom.V(float64(i), 1, 1.5), States: element.SP4TStates()}
	}
	return element.NewArray(elems...)
}

// startAgent runs an agent over one end of a pipe and returns a cleanup.
func startAgent(t testing.TB, agent *Agent, conn Conn) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Serve(ctx, conn)
	}()
	t.Cleanup(func() {
		cancel()
		conn.Close()
		<-done
	})
	return cancel
}

func TestSetConfigOverCleanPipe(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 1})
	arr := testArray(3)
	agent := NewAgent(7, arr)

	var applied element.Config
	var mu sync.Mutex
	agent.OnApply = func(cfg element.Config) {
		mu.Lock()
		applied = cfg
		mu.Unlock()
	}
	startAgent(t, agent, a)

	ctrl := NewController(b)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}
	if ctrl.AgentID() != 7 || ctrl.NumElements() != 3 {
		t.Fatalf("handshake learned id=%d n=%d", ctrl.AgentID(), ctrl.NumElements())
	}

	want := element.Config{1, 3, 2}
	if err := ctrl.SetConfig(ctx, want); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := applied
	mu.Unlock()
	if !got.Equal(want) {
		t.Errorf("applied %v, want %v", got, want)
	}
	if !agent.Current().Equal(want) {
		t.Errorf("agent current %v", agent.Current())
	}
	// Query round-trips the same config.
	back, err := ctrl.QueryConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(want) {
		t.Errorf("query returned %v", back)
	}
}

func TestSetConfigSurvivesLossAndCorruption(t *testing.T) {
	// 30% loss and 10% corruption each way: retransmission must still get
	// every configuration through.
	a, b := NewLossyPipe(LossyConfig{Seed: 42, LossRate: 0.3, CorruptRate: 0.1, Latency: time.Millisecond})
	arr := testArray(3)
	agent := NewAgent(1, arr)
	startAgent(t, agent, a)

	ctrl := NewController(b)
	ctrl.Timeout = 50 * time.Millisecond
	ctrl.Retries = 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		// The hello itself can be lost; that is fine for this test as
		// long as actuation still works (NumElements check is skipped).
		t.Logf("handshake: %v (hello lost; continuing)", err)
	}
	for trial := 0; trial < 10; trial++ {
		want := arr.ConfigAt((trial * 13) % arr.NumConfigs())
		if err := ctrl.SetConfig(ctx, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !agent.Current().Equal(want) {
			t.Fatalf("trial %d: agent at %v, want %v", trial, agent.Current(), want)
		}
	}
	if ctrl.Stats.Retries.Load() == 0 {
		t.Error("expected some retries under 30% loss")
	}
	if ctrl.Stats.Acked.Load() != 10 {
		t.Errorf("acked = %d, want 10", ctrl.Stats.Acked.Load())
	}
}

func TestSetConfigRejected(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 3})
	agent := NewAgent(1, testArray(3))
	startAgent(t, agent, a)

	ctrl := NewController(b)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}
	// State index 9 does not exist on an SP4T element.
	err := ctrl.SetConfig(ctx, element.Config{9, 0, 0})
	if !errors.Is(err, ErrRejected) {
		t.Errorf("err = %v, want ErrRejected", err)
	}
	// Wrong length is caught locally after handshake.
	if err := ctrl.SetConfig(ctx, element.Config{0}); err == nil {
		t.Error("wrong-length config accepted")
	}
}

func TestPingMeasuresLatency(t *testing.T) {
	lat := 5 * time.Millisecond
	a, b := NewLossyPipe(LossyConfig{Seed: 4, Latency: lat})
	agent := NewAgent(1, testArray(2))
	startAgent(t, agent, a)

	ctrl := NewController(b)
	ctrl.Timeout = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ctrl.Handshake(ctx); err != nil {
		t.Fatal(err)
	}
	rtt, err := ctrl.Ping(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 2*lat {
		t.Errorf("rtt = %v, should be at least the two-way latency %v", rtt, 2*lat)
	}
}

func TestAgentOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(99, testArray(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.ListenAndServe(ctx, l)
	}()
	defer func() { cancel(); <-done }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ctrl := NewController(NewStreamConn(nc))
	ctrl.Timeout = time.Second
	cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
	defer ccancel()
	if err := ctrl.Handshake(cctx); err != nil {
		t.Fatal(err)
	}
	if ctrl.AgentID() != 99 || ctrl.NumElements() != 4 {
		t.Fatalf("handshake: id=%d n=%d", ctrl.AgentID(), ctrl.NumElements())
	}
	want := element.Config{3, 2, 1, 0}
	if err := ctrl.SetConfig(cctx, want); err != nil {
		t.Fatal(err)
	}
	if !agent.Current().Equal(want) {
		t.Errorf("agent at %v", agent.Current())
	}
	rtt, err := ctrl.Ping(cctx)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("tcp rtt = %v", rtt)
	}
}

func TestMultipleControllersOneAgent(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(5, testArray(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.ListenAndServe(ctx, l)
	}()
	defer func() { cancel(); <-done }()

	for i := 0; i < 3; i++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		ctrl := NewController(NewStreamConn(nc))
		ctrl.Timeout = time.Second
		cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
		if err := ctrl.Handshake(cctx); err != nil {
			t.Fatalf("controller %d: %v", i, err)
		}
		if err := ctrl.SetConfig(cctx, element.Config{i % 4, (i + 1) % 4}); err != nil {
			t.Fatalf("controller %d: %v", i, err)
		}
		ccancel()
		nc.Close()
	}
}

func TestControllerTimeoutWhenAgentDead(t *testing.T) {
	_, b := NewLossyPipe(LossyConfig{Seed: 6})
	ctrl := NewController(b)
	ctrl.Timeout = 20 * time.Millisecond
	ctrl.Retries = 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := ctrl.SetConfig(ctx, element.Config{0})
	if err == nil {
		t.Fatal("set-config succeeded with no agent")
	}
	if ctrl.Stats.Timeouts.Load() == 0 {
		t.Error("expected timeout stats")
	}
}

func TestLossyPipeDroppedCounter(t *testing.T) {
	a, _ := NewLossyPipe(LossyConfig{Seed: 9, LossRate: 1.0})
	for i := 0; i < 5; i++ {
		if err := a.Send(uint32(i), 0, &Query{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.(*lossyEnd).Dropped(); got != 5 {
		t.Errorf("dropped = %d, want 5", got)
	}
}

func TestClosedPipe(t *testing.T) {
	a, b := NewLossyPipe(LossyConfig{Seed: 10})
	a.Close()
	if err := a.Send(1, 0, &Query{}); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed = %v", err)
	}
	if _, _, _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("recv on closed peer = %v", err)
	}
}
