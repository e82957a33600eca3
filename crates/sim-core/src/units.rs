//! Size and bandwidth units.
//!
//! The cluster model quotes link and disk speeds the way datasheets do
//! (56 Gbit/s InfiniBand, 500 MB/s SATA SSD); this module converts between
//! those quotes and per-message transfer times.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::time::SimTime;

/// A number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size in bytes.
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a size in binary kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Creates a size in binary mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Creates a size in binary gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Number of 4 KiB pages needed to hold this many bytes (rounded up).
    pub const fn pages_4k(self) -> u64 {
        self.0.div_ceil(4096)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2}MiB", b as f64 / (1024.0 * 1024.0))
        } else if b >= 1024 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    pub const fn bytes_per_sec(b: f64) -> Self {
        Bandwidth(b)
    }

    /// Creates a bandwidth from megabytes (10^6) per second — disk style.
    pub fn mb_per_sec(mb: f64) -> Self {
        Bandwidth(mb * 1e6)
    }

    /// Creates a bandwidth from gigabits (10^9) per second — network style.
    pub fn gbit_per_sec(gb: f64) -> Self {
        Bandwidth(gb * 1e9 / 8.0)
    }

    /// Creates a bandwidth from megabits (10^6) per second.
    pub fn mbit_per_sec(mb: f64) -> Self {
        Bandwidth(mb * 1e6 / 8.0)
    }

    /// Returns the rate in bytes per second.
    pub const fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to serialize `size` bytes onto this link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive.
    pub fn transfer_time(self, size: ByteSize) -> SimTime {
        assert!(self.0 > 0.0, "bandwidth must be positive");
        SimTime::from_secs_f64(size.as_u64() as f64 / self.0)
    }

    /// Scales the bandwidth by a factor (e.g. protocol efficiency).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0 * 8.0;
        if bps >= 1e9 {
            write!(f, "{:.1}Gbps", bps / 1e9)
        } else if bps >= 1e6 {
            write!(f, "{:.1}Mbps", bps / 1e6)
        } else {
            write!(f, "{:.0}bps", bps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constructors() {
        assert_eq!(ByteSize::kib(4).as_u64(), 4096);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn page_rounding() {
        assert_eq!(ByteSize::bytes(1).pages_4k(), 1);
        assert_eq!(ByteSize::bytes(4096).pages_4k(), 1);
        assert_eq!(ByteSize::bytes(4097).pages_4k(), 2);
        assert_eq!(ByteSize::ZERO.pages_4k(), 0);
    }

    #[test]
    fn bandwidth_conversions() {
        // 56 Gbps InfiniBand = 7e9 bytes/s.
        let ib = Bandwidth::gbit_per_sec(56.0);
        assert!((ib.as_bytes_per_sec() - 7e9).abs() < 1.0);
        // A 4 KiB page over that link takes ~585ns.
        let t = ib.transfer_time(ByteSize::kib(4));
        assert!((t.as_nanos() as i64 - 585).abs() <= 1, "{t}");
    }

    #[test]
    fn disk_transfer_time() {
        let ssd = Bandwidth::mb_per_sec(500.0);
        let t = ssd.transfer_time(ByteSize::mib(500));
        // 500 MiB at 500 MB/s is a shade over one second.
        assert!((t.as_secs_f64() - 1.048).abs() < 0.01, "{t}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ByteSize::mib(2)), "2.00MiB");
        assert_eq!(format!("{}", Bandwidth::gbit_per_sec(56.0)), "56.0Gbps");
        assert_eq!(format!("{}", Bandwidth::mbit_per_sec(1.0)), "1.0Mbps");
    }

    #[test]
    fn scale_bandwidth() {
        let b = Bandwidth::gbit_per_sec(10.0).scale(0.5);
        assert!((b.as_bytes_per_sec() - 0.625e9).abs() < 1.0);
    }
}
