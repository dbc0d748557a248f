#include "sparse/csr.hpp"

#include <cmath>

#include "sparse/spmv_simd.hpp"

namespace lck {

void CsrMatrix::build_plan() {
  block_rows_.assign(1, 0);
  block_rows_.reserve(static_cast<std::size_t>(
                          nnz() / kSpmvBlockNnz + rows_ / kSpmvBlockMaxRows) +
                      2);
  index_t r = 0;
  while (r < rows_) {
    index_t end = r + 1;  // a block always takes at least one row
    while (end < rows_ && end - r < kSpmvBlockMaxRows &&
           row_ptr_[end + 1] - row_ptr_[r] <= kSpmvBlockNnz)
      ++end;
    block_rows_.push_back(end);
    r = end;
  }
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  require(static_cast<index_t>(x.size()) == cols_, "spmv: x size mismatch");
  require(static_cast<index_t>(y.size()) == rows_, "spmv: y size mismatch");
  spmv::multiply_blocked(row_ptr_.data(), col_idx_.data(), values_.data(),
                         x.data(), y.data(), block_rows_);
}

void CsrMatrix::residual(std::span<const double> b, std::span<const double> x,
                         std::span<double> y) const {
  require(static_cast<index_t>(b.size()) == rows_, "residual: b size mismatch");
  require(static_cast<index_t>(x.size()) == cols_, "residual: x size mismatch");
  spmv::residual_blocked(row_ptr_.data(), col_idx_.data(), values_.data(),
                         b.data(), x.data(), y.data(), block_rows_);
}

double CsrMatrix::residual_norm2(std::span<const double> b,
                                 std::span<const double> x,
                                 std::span<double> y) const {
  require(static_cast<index_t>(b.size()) == rows_, "residual: b size mismatch");
  require(static_cast<index_t>(x.size()) == cols_, "residual: x size mismatch");
  require(static_cast<index_t>(y.size()) == rows_, "residual: y size mismatch");
  // One fused sweep saves the separate norm pass over y; count it like the
  // norm2() call it replaces.
  obs::add_vector_passes(1);
  return std::sqrt(spmv::residual_norm2_sq(row_ptr_.data(), col_idx_.data(),
                                           values_.data(), b.data(), x.data(),
                                           y.data(), rows_));
}

void CsrMatrix::multiply_rowwise(std::span<const double> x,
                                 std::span<double> y) const {
  require(static_cast<index_t>(x.size()) == cols_, "spmv: x size mismatch");
  require(static_cast<index_t>(y.size()) == rows_, "spmv: y size mismatch");
  parallel_for(0, rows_, [&](index_t r) {
    const index_t k0 = row_ptr_[r];
    y[r] = spmv::row_dot_scalar(col_idx_.data() + k0, values_.data() + k0,
                                row_ptr_[r + 1] - k0, x.data());
  });
}

void CsrMatrix::residual_rowwise(std::span<const double> b,
                                 std::span<const double> x,
                                 std::span<double> y) const {
  require(static_cast<index_t>(b.size()) == rows_, "residual: b size mismatch");
  require(static_cast<index_t>(x.size()) == cols_, "residual: x size mismatch");
  parallel_for(0, rows_, [&](index_t r) {
    const index_t k0 = row_ptr_[r];
    y[r] = b[r] - spmv::row_dot_scalar(col_idx_.data() + k0,
                                       values_.data() + k0,
                                       row_ptr_[r + 1] - k0, x.data());
  });
}

void CsrMatrix::validate() const {
  require(rows_ >= 0 && cols_ >= 0, "csr: negative dimensions");
  require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
          "csr: row_ptr size mismatch");
  require(row_ptr_.front() == 0, "csr: row_ptr must start at 0");
  require(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
          "csr: row_ptr must end at nnz");
  require(col_idx_.size() == values_.size(), "csr: col/value size mismatch");
  for (index_t r = 0; r < rows_; ++r) {
    require(row_ptr_[r] <= row_ptr_[r + 1], "csr: row_ptr not monotonic");
    for (index_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      require(col_idx_[k] >= 0 && col_idx_[k] < cols_,
              "csr: column index out of range");
      if (k > row_ptr_[r])
        require(col_idx_[k - 1] < col_idx_[k], "csr: columns not ascending");
    }
  }
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<index_t> t_row_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const index_t c : col_idx_) ++t_row_ptr[c + 1];
  for (index_t c = 0; c < cols_; ++c) t_row_ptr[c + 1] += t_row_ptr[c];

  std::vector<index_t> t_col(col_idx_.size());
  std::vector<double> t_val(values_.size());
  std::vector<index_t> next(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const index_t c = col_idx_[k];
      const index_t slot = next[c]++;
      t_col[slot] = r;   // rows visited in order => columns ascend per row
      t_val[slot] = values_[k];
    }
  }
  // The counting pass above produces a correct-by-construction layout
  // (rows visited in order => columns ascend per row); skip re-validation.
  return CsrMatrix(Trusted{}, cols_, rows_, std::move(t_row_ptr),
                   std::move(t_col), std::move(t_val));
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  const CsrMatrix t = transpose();
  if (t.nnz() != nnz()) return false;
  for (index_t r = 0; r < rows_; ++r) {
    if (t.row_ptr_[r] != row_ptr_[r]) return false;
    for (index_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (t.col_idx_[k] != col_idx_[k]) return false;
      if (std::fabs(t.values_[k] - values_[k]) > tol) return false;
    }
  }
  return true;
}

}  // namespace lck
