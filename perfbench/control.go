package main

import (
	"io"
	"net"
	"time"
)

// refDuration is how long the loopback control runs after each window.
const refDuration = 500 * time.Millisecond

// loopbackRTT is the same-binary control: the median round trip of a
// 64-byte ping-pong between two goroutines over a loopback TCP connection,
// with no C-Saw code on the path. It moves with the host (CPU contention,
// wake-up latency) and not with the program, so a shift in the workload's
// figures that this control shares is host drift rather than a regression.
func loopbackRTT(d time.Duration) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	var rtts []float64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		t := time.Now()
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t)))
	}
	c.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(rtts), nil
}
