//go:build linux

package main

import "syscall"

// daemonAttr makes the kernel SIGKILL a started daemon when the test binary
// dies, so a panic or a -timeout kill, which skip the deferred SIGTERM,
// leave no squid-node running.
func daemonAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
