// In-process sharding: OpenLocal hosts every shard server of a deployment
// in this process and drives them with the one Coordinator, exactly as a
// networked deployment is driven — the same routing, frames, codec,
// acknowledgement fold, replica journal and rejoin — except that each
// connection is an in-memory net.Pipe instead of a TCP socket.
//
// A durable local deployment lays its directory out as
//
//	dir/shards.manifest   the pinned shard count (format 2)
//	dir/coordinator/      the coordinator's replica journal
//	dir/shard-%03d/       shard i's journal (sharded.Config.NodeConfig(i))
//
// Reopening it restores each journal on its own and lets the coordinator
// rejoin every shard, so a whole-process crash mid-batch is repaired by the
// same tail re-send that repairs a networked shard.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/wal"
)

// manifestFormat versions the local layout. Format 1 was written by the
// replicated in-process coordinator this deployment replaced: its shards
// journal every operation in full, it keeps no replica journal, and so its
// directories cannot be read here.
const manifestFormat = 2

type manifestJSON struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// checkManifest pins the shard count in dir, creating the manifest on first
// use and refusing a directory this layout cannot read.
func checkManifest(dir string, shards int) error {
	// A root-level WAL means dir serves a single-node resolver; laying
	// shard directories beside it would ignore that journal and restart
	// the stream from nothing.
	if segs, err := wal.ListNumberedFiles(dir, "wal-", ".seg"); err == nil && len(segs) > 0 {
		return fmt.Errorf("transport: %s holds a single-node resolver journal; open it without shards or choose a fresh directory", dir)
	}
	path := filepath.Join(dir, incremental.ShardedManifestName)
	payload, err := wal.ReadFileFramed(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		payload, err := json.Marshal(manifestJSON{Format: manifestFormat, Shards: shards})
		if err != nil {
			return err
		}
		if err := wal.WriteFileAtomic(path, payload); err != nil {
			return fmt.Errorf("transport: writing %s: %w", path, err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("transport: reading %s: %w", path, err)
	}
	var m manifestJSON
	if err := json.Unmarshal(payload, &m); err != nil {
		return fmt.Errorf("transport: decoding %s: %w", path, err)
	}
	switch {
	case m.Format == 1:
		return fmt.Errorf("transport: %s was written by the replicated in-process coordinator (manifest format 1): its shards journal the whole stream unrouted and it kept no coordinator journal, so it cannot be reopened; replay its operation log into a fresh directory", dir)
	case m.Format != manifestFormat:
		return fmt.Errorf("transport: manifest format %d is not supported (want %d)", m.Format, manifestFormat)
	case m.Shards != shards:
		return fmt.Errorf("transport: %s was created with %d shards, the deployment is configured with %d — the key partition would silently change", dir, m.Shards, shards)
	}
	return nil
}

// hosted is the shard servers a local deployment runs in this process.
type hosted struct {
	servers []*ShardServer
	served  sync.WaitGroup
}

// close shuts every server down, sealing its journal, and waits for its
// accept loop to return. Safe on a nil receiver (a networked coordinator).
func (h *hosted) close() error {
	if h == nil {
		return nil
	}
	var errs []error
	for _, s := range h.servers {
		errs = append(errs, s.Close())
	}
	h.served.Wait()
	return errors.Join(errs...)
}

// abandon drops every server without sealing its journal.
func (h *hosted) abandon() {
	if h == nil {
		return
	}
	for _, s := range h.servers {
		s.Abandon()
	}
	h.served.Wait()
}

// pipeListener is a net.Listener whose connections are the server ends of
// net.Pipe pairs handed over by dial.
type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

func newPipeListener(addr string) *pipeListener {
	return &pipeListener{addr: pipeAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// dial connects a client to the listener's server.
func (l *pipeListener) dial(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		err := fmt.Errorf("transport: %s: %w", l.addr, net.ErrClosed)
		client.Close()
		server.Close()
		return nil, err
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// OpenLocal opens an in-process sharded deployment of cfg.Shards shards:
// one ShardServer per shard — durable under dir/shard-%03d, in-memory when
// dir is empty — each served over in-memory pipes, and the Coordinator
// connected to them with its replica journal in dir/coordinator. opts tunes
// the connections; its Dial is replaced by the pipe dialer. Close and
// Abandon stop the hosted servers with the coordinator.
func OpenLocal(ctx context.Context, dir string, cfg sharded.Config, opts ClientOptions) (co *Coordinator, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := max(cfg.Shards, 1)
	cfg.Shards = shards
	coordDir, shardDir := "", func(int) string { return "" }
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if err := checkManifest(dir, shards); err != nil {
			return nil, err
		}
		coordDir = filepath.Join(dir, "coordinator")
		shardDir = func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%03d", i)) }
	}
	h := &hosted{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	addrs := make([]string, shards)
	listeners := make(map[string]*pipeListener, shards)
	for i := range addrs {
		srv, err := NewShardServer(shardDir(i), cfg, i)
		if err != nil {
			return nil, err
		}
		h.servers = append(h.servers, srv)
		addrs[i] = fmt.Sprintf("pipe:shard-%03d", i)
		lis := newPipeListener(addrs[i])
		listeners[addrs[i]] = lis
		h.served.Add(1)
		go func() {
			defer h.served.Done()
			srv.Serve(lis) // returns once the server closes its listener
		}()
	}
	opts.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		lis, ok := listeners[addr]
		if !ok {
			return nil, fmt.Errorf("transport: no hosted shard at %q", addr)
		}
		return lis.dial(ctx)
	}
	co, err = OpenCoordinator(ctx, coordDir, cfg, addrs, opts)
	if err != nil {
		return nil, err
	}
	co.host = h
	return co, nil
}
