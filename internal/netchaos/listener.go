package netchaos

import (
	"net"
	"time"
)

// WrapListener shims a server-side listener with inbound fault
// injection, so an in-process RM's own port is faulted with no separate
// proxy process. Connections arriving while the client->server
// direction is partitioned are closed immediately (the client sees a
// reset); established connections are judged per read/write.
func WrapListener(ln net.Listener, inj *Injector, clientLabel, serverLabel string) net.Listener {
	if inj == nil {
		return ln
	}
	return &chaosListener{Listener: ln, inj: inj, client: clientLabel, server: serverLabel}
}

type chaosListener struct {
	net.Listener
	inj            *Injector
	client, server string
}

func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		d := l.inj.Decide(l.client, l.server)
		if d.Drop || d.Reset {
			_ = c.Close()
			continue
		}
		return &chaosConn{Conn: c, inj: l.inj, client: l.client, server: l.server}, nil
	}
}

// chaosConn applies the client->server direction to reads (inbound
// bytes) and server->client to writes (outbound bytes).
type chaosConn struct {
	net.Conn
	inj            *Injector
	client, server string
}

func (c *chaosConn) Read(p []byte) (int, error) {
	d := c.inj.Decide(c.client, c.server)
	if d.Drop || d.Reset {
		_ = c.Conn.Close()
		return 0, &FaultError{Link: c.client + "->" + c.server, Reason: "connection severed"}
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	n, err := c.Conn.Read(p)
	if n > 0 && d.BytesPerSec > 0 {
		time.Sleep(time.Duration(float64(n) / float64(d.BytesPerSec) * float64(time.Second)))
	}
	return n, err
}

func (c *chaosConn) Write(p []byte) (int, error) {
	d := c.inj.Decide(c.server, c.client)
	if d.Drop || d.Reset {
		_ = c.Conn.Close()
		return 0, &FaultError{Link: c.server + "->" + c.client, Reason: "connection severed"}
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.BytesPerSec > 0 {
		n := 0
		for n < len(p) {
			end := n + 1024
			if end > len(p) {
				end = len(p)
			}
			w, err := c.Conn.Write(p[n:end])
			n += w
			if err != nil {
				return n, err
			}
			time.Sleep(time.Duration(float64(w) / float64(d.BytesPerSec) * float64(time.Second)))
		}
		return n, nil
	}
	return c.Conn.Write(p)
}
