import hashlib

import pytest

from profaudit.artifacts import sha256_file


# on either side of the 64 KiB read chunk, of 1 MiB and of 2 MiB
@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 1048575,
                                  1048576, 1048577, 2097153])
def test_sha256_file_is_blake2b_256(tmp_path, size):
    data = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
    path = tmp_path / "f"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.blake2b(
        data, digest_size=32).hexdigest()
