package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hoplite/internal/types"
)

// collectWriter records each Write as one batch so tests can inspect
// exactly how frames were coalesced onto the "wire".
type collectWriter struct {
	mu      sync.Mutex
	batches [][]byte
	err     error
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.batches = append(w.batches, append([]byte(nil), p...))
	return len(p), nil
}

func (w *collectWriter) frames(t *testing.T) []Message {
	t.Helper()
	w.mu.Lock()
	var all []byte
	for _, b := range w.batches {
		all = append(all, b...)
	}
	w.mu.Unlock()
	br := bufio.NewReader(bytes.NewReader(all))
	var out []Message
	for {
		var m Message
		if err := readMessage(br, &m); err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatalf("decode batched stream: %v", err)
		}
		out = append(out, m)
	}
}

// gatedWriter is a collectWriter whose first Write blocks until release
// is closed, so frames enqueued meanwhile pile up behind the flusher.
type gatedWriter struct {
	collectWriter
	release chan struct{}
	once    sync.Once
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { <-w.release })
	return w.collectWriter.Write(p)
}

// Frames enqueued while the flusher is busy must drain in enqueue order
// and share writes.
func TestBatcherCoalescesAndPreservesOrder(t *testing.T) {
	w := &gatedWriter{release: make(chan struct{})}
	b := newBatcher(w, nil)
	defer b.close()
	const n = 50
	for i := int64(0); i < n; i++ {
		if err := b.enqueue(&Message{Method: MethodPing, Num: i}); err != nil {
			t.Fatal(err)
		}
	}
	close(w.release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := w.frames(t); len(got) == n {
			for i, m := range got {
				if m.Num != int64(i) {
					t.Fatalf("frame %d carries Num %d: order not preserved", i, m.Num)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames drained", len(w.frames(t)), n)
		}
		time.Sleep(time.Millisecond)
	}
	st := b.stats()
	if st.Frames != n {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, n)
	}
	if st.Flushes >= st.Frames {
		t.Fatalf("no coalescing: %d flushes for %d frames", st.Flushes, st.Frames)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

// A write failure must mark the batcher dead and fire the error hook so
// the owning connection tears down.
func TestBatcherWriteFailureFiresHook(t *testing.T) {
	failed := make(chan error, 1)
	b := newBatcher(errWriter{errors.New("conn reset")}, func(err error) {
		failed <- err
	})
	_ = b.enqueue(&Message{Method: MethodPing})
	select {
	case <-failed:
	case <-time.After(2 * time.Second):
		t.Fatal("error hook never fired")
	}
	// Subsequent enqueues are rejected with the write error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := b.enqueue(&Message{Method: MethodPing}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueue still accepted after write failure")
		}
		time.Sleep(time.Millisecond)
	}
}

// slowWriteConn delays every Write by a millisecond.
type slowWriteConn struct{ net.Conn }

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return c.Conn.Write(p)
}

// End to end: concurrent Calls over a real connection must coalesce —
// strictly fewer writes than frames on the client's batcher — while every
// call still completes with its own response.
func TestClientCallsCoalesceUnderConcurrency(t *testing.T) {
	h := func(ctx context.Context, m Message, p *Peer) Message {
		return Message{Size: m.Size * 2}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A slow link keeps the flusher busy long enough for concurrent calls
	// to queue behind it; plain loopback writes can finish before the next
	// call enqueues.
	c := NewClient(slowWriteConn{conn}, nil)
	defer c.Close()

	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := int64(1); i <= calls; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			resp, err := c.Call(context.Background(), Message{Method: MethodPing, Size: i})
			if err == nil && resp.Size != 2*i {
				err = errors.New("response mismatch")
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.BatchStats()
	if st.Frames != calls {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, calls)
	}
	if st.Flushes >= st.Frames {
		t.Fatalf("no coalescing under concurrency: %d flushes for %d frames", st.Flushes, st.Frames)
	}
}

// Closing the client while calls are queued must fail them with
// ErrNodeDown rather than hanging.
func TestClientCloseFailsQueuedCalls(t *testing.T) {
	block := make(chan struct{})
	h := func(ctx context.Context, m Message, p *Peer) Message {
		<-block
		return m
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	go srv.Serve()
	defer srv.Close()
	defer close(block)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, nil)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), Message{Method: MethodPing})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, types.ErrNodeDown) && !errors.Is(err, types.ErrClosed) {
			t.Fatalf("queued call failed with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued call hung across Close")
	}
}
