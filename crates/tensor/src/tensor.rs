use crate::{Result, Shape, TensorError};
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single data container used by every crate in this
/// workspace: network weights, activations, gradients, threshold banks and
/// dataset batches are all `Tensor`s. Storage is always contiguous, so
/// kernels can assume unit inner stride.
///
/// Storage is copy-on-write: [`clone`](Clone::clone) and
/// [`reshape`](Tensor::reshape) share one reference-counted buffer, and
/// the first write through a shared handle copies the data first. So
/// every task plan bound from one frozen backbone holds that backbone's
/// buffers rather than copies of them, while value semantics are
/// unchanged: a write through one handle is never visible through
/// another. [`shares_storage`](Tensor::shares_storage) tells whether two
/// handles point at one buffer.
///
/// ```
/// # use mime_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    // `Arc<Vec<_>>`, not `Arc<[_]>`: converting a `Vec` into an
    // `Arc<[_]>` copies it, and `from_vec`/`into_vec` stay zero-copy.
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: Arc::new(vec![0.0; len]) }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: Arc::new(vec![value; len]) }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: Arc::new(vec![value]) }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor { shape: Shape::new(&[n, n]), data: Arc::new(data) }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data: Arc::new(data) })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: Arc::new(data.to_vec()) }
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { shape, data: Arc::new(data) }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the flat storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat storage. Copies the data first when
    /// another handle shares it, so the write stays private to `self`.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its flat storage: the buffer itself
    /// when this handle is its only owner, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Whether `self` and `other` are handles to one storage buffer (a
    /// clone or reshape of one another, with no write since). Equal
    /// values in separate buffers do not count.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    /// The result shares `self`'s storage; neither handle sees the
    /// other's later writes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: self.len(),
            });
        }
        Ok(Tensor { shape, data: Arc::clone(&self.data) })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is a matrix.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor { shape: Shape::new(&[c, r]), data: Arc::new(out) })
    }

    /// Fraction of elements equal to zero — the *sparsity* of the tensor.
    ///
    /// This is the quantity reported throughout the paper's Tables II and
    /// III (neuronal sparsity of activation maps). Returns 0 for an empty
    /// tensor.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Count of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).rank(), 0);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        t.set(&[0, 1], 9.0).unwrap();
        assert_eq!(t.at(&[0, 1]).unwrap(), 9.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::from_slice(&[1.0]).transpose().is_err());
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_slice(&[0.0, 1.0, 0.0, 2.0]);
        assert!((t.sparsity() - 0.5).abs() < 1e-9);
        assert_eq!(t.count_nonzero(), 2);
        assert_eq!(Tensor::zeros(&[0]).sparsity(), 0.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(t.map(|x| x * 2.0).as_slice(), &[2.0, -4.0]);
        let mut m = t.clone();
        m.map_inplace(f32::abs);
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn clone_and_reshape_share_storage_until_written() {
        let base = Tensor::from_fn(&[2, 3], |i| i as f32 - 2.5);
        let want = bits(&base);
        assert!(base.clone().shares_storage(&base));
        assert!(base.reshape(&[3, 2]).unwrap().shares_storage(&base));
        assert!(
            !Tensor::from_slice(base.as_slice()).shares_storage(&base),
            "equal values in a separate buffer are not shared storage"
        );
        let writes: [fn(&mut Tensor); 3] = [
            |t| t.as_mut_slice()[1] = 42.0,
            |t| t.set(&vec![0; t.rank()], -7.0).unwrap(),
            |t| t.map_inplace(|v| v * 3.0 + 1.0),
        ];
        for (i, write) in writes.iter().enumerate() {
            // through the clone, then through the original handle
            let mut a = base.clone();
            let b = a.reshape(&[6]).unwrap();
            write(&mut a);
            assert_ne!(bits(&a), want, "write {i} took effect");
            assert_eq!(bits(&b), want, "write {i} through a leaked into b");
            assert!(!a.shares_storage(&b));
            let a = base.clone();
            let mut b = a.clone();
            write(&mut b);
            assert_eq!(bits(&a), want, "write {i} through b leaked into a");
        }
        assert_eq!(bits(&base), want);
        // a sole owner writes in place
        let mut sole = Tensor::from_fn(&[4], |i| i as f32);
        let ptr = sole.as_slice().as_ptr();
        sole.map_inplace(|v| v + 1.0);
        assert_eq!(sole.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn into_vec_moves_a_sole_buffer_and_copies_a_shared_one() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let ptr = v.as_ptr();
        let t = Tensor::from_vec(v, &[2, 2]).unwrap();
        assert_eq!(t.as_slice().as_ptr(), ptr, "from_vec is zero-copy");
        let other = t.clone();
        let mut copied = t.into_vec();
        assert_ne!(copied.as_ptr(), ptr, "a shared buffer is copied out");
        copied[0] = 9.0;
        assert_eq!(other.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let last = other.into_vec();
        assert_eq!(last.as_ptr(), ptr, "the last owner gets the buffer");
    }

    #[test]
    fn clones_written_on_other_threads_leave_the_original() {
        let base = Tensor::from_fn(&[257], |i| i as f32 * 0.5);
        let want = bits(&base);
        let writers = 4;
        let barrier = std::sync::Barrier::new(writers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let mut mine = base.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    // every writer starts from a shared buffer at once
                    barrier.wait();
                    mine.map_inplace(|v| v + w as f32 + 1.0);
                    mine.as_mut_slice()[0] = -1.0;
                    assert_eq!(mine.as_slice()[1], 0.5 + w as f32 + 1.0);
                });
            }
            assert_eq!(bits(&base), want);
        });
        assert_eq!(bits(&base), want);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Tensor::zeros(&[2])).is_empty());
        assert!(!format!("{}", Tensor::zeros(&[100])).is_empty());
    }
}
