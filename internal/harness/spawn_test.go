package harness

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"
	"time"

	"countnet/internal/obs"
)

// exitingByeEvents sizes the helper worker's bye line: about 37 KB of
// flight events, small enough to sit whole in the pipe's buffer.
const exitingByeEvents = 500

// TestHelperExitingWorker is not a test on its own:
// TestReaderOutlivesWorkerExit forks the test binary into it as a
// worker process. It announces ready, writes five obs lines (four fill
// the runner's message buffer, the fifth blocks its reader), waits for
// the reader to take them, then writes a bye line and exits at once,
// leaving that line unread in the pipe.
func TestHelperExitingWorker(t *testing.T) {
	if os.Getenv("HARNESS_EXITING_WORKER") == "" {
		t.Skip("helper process for TestReaderOutlivesWorkerExit")
	}
	id := flag.Arg(flag.NArg() - 1) // spawn passes -sync URL -id wN
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(Message{Op: "ready", Worker: id}) //nolint:errcheck // the parent reports a short stream
	for i := 0; i < 5; i++ {
		enc.Encode(Message{Op: "obs", Worker: id}) //nolint:errcheck // as above
	}
	time.Sleep(200 * time.Millisecond)
	flight := make([]obs.FlightEvent, exitingByeEvents)
	for i := range flight {
		flight[i] = obs.FlightEvent{Seq: uint64(i), TS: int64(i), Kind: obs.FlightBlockLease, A: int64(4 * i), B: 4}
	}
	enc.Encode(Message{Op: "bye", Worker: id, Flight: flight}) //nolint:errcheck // as above
	os.Exit(0)
}

// TestReaderOutlivesWorkerExit: what a worker process wrote before it
// exited must reach the runner even when the runner reads it only
// after the process is reaped. Reading through cmd.StdoutPipe lost it,
// because Wait closes that pipe once the process exits; the kill
// scenario then failed now and then on an "undecodable line" holding
// the cut-off bye of a retiring worker.
func TestReaderOutlivesWorkerExit(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker process")
	}
	t.Setenv("HARNESS_EXITING_WORKER", "1")
	r := &runner{
		ropt: RunnerOptions{
			Bin:          os.Args[0],
			BinArgs:      []string{"-test.run=^TestHelperExitingWorker$", "--"},
			Log:          io.Discard,
			PhaseTimeout: time.Minute,
		},
		url: "http://127.0.0.1:1", // never dialed by the helper
	}
	if err := r.spawn(); err != nil {
		t.Fatal(err)
	}
	p := r.live[0]
	<-p.done // exited and reaped, its bye still unread
	m, err := p.next(time.Minute)
	if err != nil || m.Op != "bye" || len(p.flight) != exitingByeEvents {
		t.Fatalf("after the worker exited: %q message, %d flight events, err %v; want its bye with %d events",
			m.Op, len(p.flight), err, exitingByeEvents)
	}
}
