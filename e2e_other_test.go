//go:build !linux

package main

import "syscall"

// daemonAttr has no parent-death signal to set outside Linux; the deferred
// SIGTERM in TestBinariesEndToEnd is the only cleanup there.
func daemonAttr() *syscall.SysProcAttr { return nil }
