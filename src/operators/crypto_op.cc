#include "operators/crypto_op.h"

namespace farview {

Result<OperatorPtr> CryptoOp::Create(const Schema& schema,
                                     const uint8_t key[16],
                                     const uint8_t nonce[16],
                                     uint64_t initial_offset) {
  if (key == nullptr || nonce == nullptr) {
    return Status::InvalidArgument("crypto operator needs key and nonce");
  }
  return OperatorPtr(new CryptoOp(schema, key, nonce, initial_offset));
}

Result<Batch> CryptoOp::Process(Batch in) {
  // XOR with the keystream; CTR encryption and decryption are the same
  // transform. Owned rows are rewritten in place. Borrowed rows are
  // read-only, so they are XORed into a pooled buffer the output owns.
  const uint64_t n = in.size_bytes();
  Batch out = Batch::Empty(in.schema);
  out.num_rows = in.num_rows;
  if (in.borrowed()) {
    // fvcheck:allow=hot-path-alloc pooled ByteBuffer
    out.data.resize(n);
    ctr_.Apply(in.bytes(), out.data.data(), n, offset_);
  } else {
    out.data = std::move(in.data);
    ctr_.Apply(out.data.data(), n, offset_);
  }
  offset_ += n;
  // Rows and bytes pass through 1:1.
  stats_.rows_in += out.num_rows;
  stats_.rows_out += out.num_rows;
  stats_.bytes_in += n;
  stats_.bytes_out += n;
  return out;
}

}  // namespace farview
