//! Physical-address decomposition for one sub-channel.
//!
//! The default layout places the column bits lowest (above the 64 B line
//! offset), then bank, then row:
//!
//! ```text
//!   | row ........ | bank (3b) | column (7b) | line offset (6b) |
//! ```
//!
//! so a sequential stream walks an 8 KB row (row-buffer hits), then moves to
//! the same row in the next bank (bank-level parallelism for streams), which
//! is the open-page-friendly mapping USIMM's default scheduler assumes. The
//! ORAM subtree layout (Ren et al. \[32\]) is built on top of this in the
//! `doram-oram` crate by packing subtrees into rows.

/// Decoded coordinates of a line within one sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Bank index (`0..banks`).
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column (line index within the row).
    pub col: u64,
}

/// Maps sub-channel physical addresses to (bank, row, column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    line_bits: u32,
    col_bits: u32,
    bank_bits: u32,
}

impl AddressMapper {
    /// Creates a mapper.
    ///
    /// * `line_bytes` — cache-line size (64 in the paper).
    /// * `row_bytes` — DRAM row (page) size (8 KB).
    /// * `banks` — banks per rank (8).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a power of two or `row_bytes <
    /// line_bytes`.
    pub fn new(line_bytes: u64, row_bytes: u64, banks: usize) -> AddressMapper {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(row_bytes.is_power_of_two(), "row size must be 2^n");
        assert!(banks.is_power_of_two(), "bank count must be 2^n");
        assert!(row_bytes >= line_bytes, "row must hold at least one line");
        AddressMapper {
            line_bits: line_bytes.trailing_zeros(),
            col_bits: (row_bytes / line_bytes).trailing_zeros(),
            bank_bits: banks.trailing_zeros(),
        }
    }

    /// The paper's configuration: 64 B lines, 8 KB rows, 8 banks.
    pub fn ddr3_default() -> AddressMapper {
        AddressMapper::new(64, 8192, 8)
    }

    /// Decodes a byte address.
    pub fn decode(&self, addr: u64) -> DecodedAddress {
        let line = addr >> self.line_bits;
        let col = line & ((1 << self.col_bits) - 1);
        let bank = (line >> self.col_bits) & ((1 << self.bank_bits) - 1);
        let row = line >> (self.col_bits + self.bank_bits);
        DecodedAddress {
            bank: bank as usize,
            row,
            col,
        }
    }

    /// Recomposes a byte address from coordinates (inverse of [`decode`]).
    ///
    /// [`decode`]: AddressMapper::decode
    pub fn encode(&self, d: DecodedAddress) -> u64 {
        let line = (d.row << (self.col_bits + self.bank_bits))
            | ((d.bank as u64) << self.col_bits)
            | d.col;
        line << self.line_bits
    }

    /// Number of lines per row.
    pub fn lines_per_row(&self) -> u64 {
        1 << self.col_bits
    }

    /// Number of banks addressed.
    pub fn banks(&self) -> usize {
        1 << self.bank_bits
    }

    /// Bytes covered by one row across one bank.
    pub fn row_bytes(&self) -> u64 {
        self.lines_per_row() << self.line_bits
    }
}

impl Default for AddressMapper {
    fn default() -> AddressMapper {
        AddressMapper::ddr3_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_lines_share_a_row() {
        let m = AddressMapper::ddr3_default();
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn row_crossing_switches_bank() {
        let m = AddressMapper::ddr3_default();
        let last_in_row = m.decode(8192 - 64);
        let first_next = m.decode(8192);
        assert_eq!(last_in_row.bank, 0);
        assert_eq!(first_next.bank, 1);
        assert_eq!(first_next.row, last_in_row.row);
        assert_eq!(first_next.col, 0);
    }

    #[test]
    fn row_increments_after_all_banks() {
        let m = AddressMapper::ddr3_default();
        let d = m.decode(8192 * 8);
        assert_eq!(
            d,
            DecodedAddress {
                bank: 0,
                row: 1,
                col: 0
            }
        );
    }

    #[test]
    fn encode_is_inverse_of_decode() {
        let m = AddressMapper::ddr3_default();
        for addr in (0..1 << 22).step_by(64 * 7) {
            let aligned = addr & !63;
            assert_eq!(m.encode(m.decode(aligned)), aligned);
        }
    }

    #[test]
    fn geometry_accessors() {
        let m = AddressMapper::ddr3_default();
        assert_eq!(m.lines_per_row(), 128);
        assert_eq!(m.banks(), 8);
        assert_eq!(m.row_bytes(), 8192);
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn non_power_of_two_rejected() {
        let _ = AddressMapper::new(64, 8192, 6);
    }
}
