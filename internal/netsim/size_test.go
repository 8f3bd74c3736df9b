package netsim

import (
	"testing"
	"unsafe"
)

// The record pins. A topology builds its ports in bulk and a run keeps
// every packet it ever had in flight, so each is held to its size class.

// TestPacketSize pins the packet to 80 B.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got > 80 {
		t.Fatalf("Packet is %d B, want at most 80", got)
	}
}

// TestPortSize pins the port to the 192 B size class.
func TestPortSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Port{}); got > 192 {
		t.Fatalf("Port is %d B, want at most 192", got)
	}
}
