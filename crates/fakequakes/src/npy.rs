//! Minimal NPY v1.0 reader/writer for 2-D `f64` arrays.
//!
//! The FDW ships MudPy's recyclable distance matrices as `.npy` files
//! through the Stash cache; this module produces byte-compatible files
//! (NumPy format spec v1.0, little-endian `<f8`, C order) without a NumPy
//! dependency, so artifacts round-trip between this implementation and the
//! original Python tooling.

use crate::error::{FqError, FqResult};
use crate::linalg::Matrix;

const MAGIC: &[u8; 6] = b"\x93NUMPY";

/// Serialise a matrix to NPY v1.0 bytes.
pub fn to_npy_bytes(m: &Matrix) -> Vec<u8> {
    let header_body = format!(
        "{{'descr': '<f8', 'fortran_order': False, 'shape': ({}, {}), }}",
        m.rows(),
        m.cols()
    );
    // Header (including trailing newline) must pad the total preamble to a
    // multiple of 64 bytes.
    let preamble_len = MAGIC.len() + 2 + 2; // magic + version + u16 header len
    let mut header = header_body.into_bytes();
    let total = preamble_len + header.len() + 1;
    let pad = (64 - total % 64) % 64;
    header.extend(std::iter::repeat_n(b' ', pad));
    header.push(b'\n');

    let mut out = Vec::with_capacity(preamble_len + header.len() + m.as_slice().len() * 8);
    out.extend_from_slice(MAGIC);
    out.push(1); // major version
    out.push(0); // minor version
    out.extend_from_slice(&(header.len() as u16).to_le_bytes());
    out.extend_from_slice(&header);
    for v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parse NPY v1.0 bytes into a matrix. Only `<f8`, C-order, 2-D arrays are
/// accepted (which is all MudPy's distance matrices ever are).
pub fn from_npy_bytes(bytes: &[u8]) -> FqResult<Matrix> {
    if bytes.len() < 10 || &bytes[..6] != MAGIC {
        return Err(FqError::Format("not an NPY file (bad magic)".into()));
    }
    let (major, _minor) = (bytes[6], bytes[7]);
    if major != 1 {
        return Err(FqError::Format(format!("unsupported NPY version {major}")));
    }
    let hlen = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
    if bytes.len() < 10 + hlen {
        return Err(FqError::Format("truncated NPY header".into()));
    }
    let header = std::str::from_utf8(&bytes[10..10 + hlen])
        .map_err(|_| FqError::Format("NPY header not UTF-8".into()))?;
    if !header.contains("'<f8'") {
        return Err(FqError::Format("only '<f8' dtype supported".into()));
    }
    if header.contains("'fortran_order': True") {
        return Err(FqError::Format("fortran order not supported".into()));
    }
    let shape = parse_shape(header)?;
    let (rows, cols) = shape;
    let data_start = 10 + hlen;
    let need = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| FqError::Format(format!("NPY shape ({rows}, {cols}) overflows usize")))?;
    let data = &bytes[data_start..];
    if data.len() < need {
        return Err(FqError::Format(format!(
            "NPY data truncated: need {need} bytes, have {}",
            data.len()
        )));
    }
    let (words, _) = data[..need].as_chunks::<8>();
    let values = words.iter().map(|w| f64::from_le_bytes(*w)).collect();
    Matrix::from_vec(rows, cols, values)
}

/// Extract `(rows, cols)` from the header's `'shape': (r, c)` entry.
fn parse_shape(header: &str) -> FqResult<(usize, usize)> {
    let start = header
        .find("'shape':")
        .ok_or_else(|| FqError::Format("NPY header missing shape".into()))?;
    let open = header[start..]
        .find('(')
        .ok_or_else(|| FqError::Format("NPY shape missing '('".into()))?
        + start;
    let close = header[open..]
        .find(')')
        .ok_or_else(|| FqError::Format("NPY shape missing ')'".into()))?
        + open;
    let inner = &header[open + 1..close];
    let dims: Vec<usize> = inner
        .split(',')
        .map(|t| t.trim())
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| FqError::Format(format!("bad NPY dimension '{t}'")))
        })
        .collect::<FqResult<_>>()?;
    match dims.as_slice() {
        [r, c] => Ok((*r, *c)),
        [r] => Ok((*r, 1)),
        _ => Err(FqError::Format(format!(
            "only 1-D/2-D NPY supported, got {} dims",
            dims.len()
        ))),
    }
}

/// Write a matrix to an `.npy` file on disk.
pub fn write_npy(path: &std::path::Path, m: &Matrix) -> FqResult<()> {
    std::fs::write(path, to_npy_bytes(m))?;
    Ok(())
}

/// Read a matrix from an `.npy` file on disk.
pub fn read_npy(path: &std::path::Path) -> FqResult<Matrix> {
    let bytes = std::fs::read(path)?;
    from_npy_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_matrix() {
        let m = Matrix::from_fn(3, 5, |i, j| i as f64 * 10.0 + j as f64 + 0.25);
        let bytes = to_npy_bytes(&m);
        let back = from_npy_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn preamble_is_64_byte_aligned() {
        let m = Matrix::zeros(2, 2);
        let bytes = to_npy_bytes(&m);
        let hlen = u16::from_le_bytes([bytes[8], bytes[9]]) as usize;
        assert_eq!((10 + hlen) % 64, 0);
        // Data must start right after the header.
        assert_eq!(bytes.len(), 10 + hlen + 4 * 8);
    }

    #[test]
    fn magic_and_version_bytes() {
        let bytes = to_npy_bytes(&Matrix::zeros(1, 1));
        assert_eq!(&bytes[..6], b"\x93NUMPY");
        assert_eq!(bytes[6], 1);
        assert_eq!(bytes[7], 0);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(from_npy_bytes(b"NOTNPYxxxxxxx").is_err());
        assert!(from_npy_bytes(b"").is_err());
    }

    #[test]
    fn rejects_truncated_data() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let bytes = to_npy_bytes(&m);
        assert!(from_npy_bytes(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn rejects_overflowing_shape() {
        for shape in ["(4611686018427387904, 4)", "(2305843009213693952, 1)"] {
            let header =
                format!("{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}\n");
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&[1, 0]);
            bytes.extend_from_slice(&(header.len() as u16).to_le_bytes());
            bytes.extend_from_slice(header.as_bytes());
            let err = from_npy_bytes(&bytes).unwrap_err();
            assert!(matches!(err, FqError::Format(_)), "{err}");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
    }

    #[test]
    fn rejects_unsupported_dtype() {
        let mut bytes = to_npy_bytes(&Matrix::zeros(1, 1));
        // Corrupt the dtype string in place.
        let pos = bytes.windows(4).position(|w| w == b"<f8'").unwrap();
        bytes[pos..pos + 3].copy_from_slice(b"<i4");
        assert!(from_npy_bytes(&bytes).is_err());
    }

    #[test]
    fn one_dimensional_shape_becomes_column() {
        // Hand-craft a 1-D header.
        let m = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let mut bytes = to_npy_bytes(&m);
        // Rewrite "(3, 1)" to "(3,)" — same byte count not required since we
        // rebuild the header; easier: parse_shape directly.
        assert_eq!(parse_shape("{'shape': (3,), }").unwrap(), (3, 1));
        assert_eq!(parse_shape("{'shape': (3, 4), }").unwrap(), (3, 4));
        assert!(parse_shape("{'shape': (3, 4, 5), }").is_err());
        assert!(parse_shape("{'noshape': 1}").is_err());
        // And the original 2-D roundtrip still works.
        bytes.truncate(bytes.len());
        assert_eq!(from_npy_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fq_npy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dist.npy");
        let m = Matrix::from_fn(7, 7, |i, j| ((i * 31 + j) % 13) as f64 / 3.0);
        write_npy(&path, &m).unwrap();
        let back = read_npy(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn special_values_roundtrip() {
        let m = Matrix::from_vec(1, 4, vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]).unwrap();
        let back = from_npy_bytes(&to_npy_bytes(&m)).unwrap();
        assert_eq!(back.as_slice()[0], f64::INFINITY);
        assert_eq!(back.as_slice()[1], f64::NEG_INFINITY);
    }
}
