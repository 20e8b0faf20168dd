package main

import (
	"fmt"
	"net"
	"sync"

	"pedal/internal/core"
	"pedal/internal/fleet"
	"pedal/internal/service"
)

// rig is the program under test as one workload sees it: libraries,
// in-process pedald servers on loopback, clients and a fleet router.
type rig struct {
	libs    []*core.Library // small-msg, bulk-stream: one per generation; service workloads: one per server
	servers []*service.Server
	addrs   []string
	lns     []net.Listener
	clients []*service.Client // pedald-2c: one per caller
	router  *fleet.Router     // fleet-2c
	serving sync.WaitGroup
}

// setupRig builds what a workload calls into. Everything it does is
// timed as set-up.
func setupRig(w *Workload) (*rig, error) {
	r := &rig{}
	switch w.Name {
	case "small-msg", "bulk-stream":
		for _, g := range w.Gens {
			lib, err := core.Init(core.Options{Generation: g})
			if err != nil {
				r.close()
				return nil, err
			}
			r.libs = append(r.libs, lib)
		}
	case "pedald-2c":
		if err := r.addServers(1); err != nil {
			return nil, err
		}
		for c := 0; c < w.Callers; c++ {
			cl, err := service.Dial(r.addrs[0])
			if err != nil {
				r.close()
				return nil, err
			}
			r.clients = append(r.clients, cl)
		}
	case "fleet-2c":
		if err := r.addServers(2); err != nil {
			return nil, err
		}
		r.router = fleet.NewRouter(fleet.Config{})
		for i, a := range r.addrs {
			r.router.AddShard(shardID(i), a)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	return r, nil
}

// addServers starts n pedald servers, each over its own BlueField-2
// library with default admission, listening on loopback.
func (r *rig) addServers(n int) error {
	for i := 0; i < n; i++ {
		lib, err := core.Init(core.Options{})
		if err != nil {
			r.close()
			return err
		}
		r.libs = append(r.libs, lib)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return err
		}
		s := service.NewServer(lib)
		r.servers = append(r.servers, s)
		r.lns = append(r.lns, ln)
		r.addrs = append(r.addrs, ln.Addr().String())
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = s.Serve(ln) // returns once Close stops the listener
		}()
	}
	return nil
}

// close tears everything down and waits for the servers to stop.
func (r *rig) close() {
	if r.router != nil {
		r.router.Close()
	}
	for _, c := range r.clients {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	// Server.Close only closes a listener Serve has already recorded; a
	// rig torn down before its servers got that far needs its own close.
	for _, ln := range r.lns {
		ln.Close()
	}
	r.serving.Wait()
	for _, l := range r.libs {
		l.Finalize()
	}
}
