package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
)

// The benchmark's code shape: Carousel(n=12, k=6, d=10, p=10), the shape
// clusterbench and the examples use.
const (
	codeN, codeK, codeD, codeP = 12, 6, 10, 10
)

// wireCounters tallies what the block servers put on and take off the
// wire, as seen by the listener the benchmark hands to Server.StartListener.
// One set is shared by all servers of a cluster.
type wireCounters struct {
	txBytes, rxBytes, writes, reads atomic.Int64
}

type wireSnap struct{ tx, rx, writes, reads int64 }

func (w *wireCounters) snap() wireSnap {
	return wireSnap{w.txBytes.Load(), w.rxBytes.Load(), w.writes.Load(), w.reads.Load()}
}

func (a wireSnap) sub(b wireSnap) wireSnap {
	return wireSnap{a.tx - b.tx, a.rx - b.rx, a.writes - b.writes, a.reads - b.reads}
}

func (a wireSnap) add(b wireSnap) wireSnap {
	return wireSnap{a.tx + b.tx, a.rx + b.rx, a.writes + b.writes, a.reads + b.reads}
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn counts bytes and read/write calls on a server connection.
type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.rxBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.txBytes.Add(int64(n))
	return n, err
}

// WriteVectored keeps the server's header+payload gather write a single
// writev on the underlying TCP connection, as it is without the wrapper:
// blockserver prefers this method over net.Buffers when a conn has it.
func (c *countingConn) WriteVectored(bufs net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(c.Conn)
	c.c.writes.Add(1)
	c.c.txBytes.Add(n)
	return n, err
}

// cluster is an in-process Carousel cluster: n block servers on loopback
// TCP behind counting listeners, and one Store over them.
type cluster struct {
	code    *carousel.Code
	servers []*blockserver.Server
	addrs   []string
	wire    *wireCounters
	store   *blockserver.Store
}

func newCode() (*carousel.Code, error) {
	return carousel.New(codeN, codeK, codeD, codeP)
}

// bootCluster starts the servers and the store. blockSize fixes the
// stripe shape (k*blockSize data bytes per stripe).
func bootCluster(code *carousel.Code, blockSize int, opts ...blockserver.StoreOption) (*cluster, error) {
	c := &cluster{code: code, wire: new(wireCounters)}
	for i := 0; i < code.N(); i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := blockserver.NewServer(code)
		addr, err := srv.StartListener(countingListener{Listener: ln, c: c.wire})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, addr)
	}
	st, err := blockserver.NewStore(code, c.addrs, blockSize, opts...)
	if err != nil {
		c.close()
		return nil, err
	}
	c.store = st
	return c, nil
}

func (c *cluster) close() {
	if c.store != nil {
		c.store.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// dropServerBlocks deletes every block server idx holds for the given
// files, modelling a node that rejoined empty. It returns the number of
// blocks deleted.
func (c *cluster) dropServerBlocks(ctx context.Context, idx int, files []blockserver.FileSpec, blockSize int) (int, error) {
	stripeData := c.code.K() * blockSize
	n := 0
	err := c.store.Pool().WithClient(ctx, c.addrs[idx], func(cl *blockserver.Client) error {
		for _, f := range files {
			for st := 0; st < (f.Size+stripeData-1)/stripeData; st++ {
				if err := cl.Delete(ctx, blockserver.BlockName(f.Name, st, idx)); err != nil {
					return err
				}
				n++
			}
		}
		return nil
	})
	return n, err
}
