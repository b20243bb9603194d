import hashlib

import pytest

from profaudit import artifacts
from profaudit.artifacts import sha256_file


@pytest.mark.parametrize("size", [0, 1, 65536, artifacts.LARGE_FILE - 1,
                                  artifacts.LARGE_FILE,
                                  artifacts.LARGE_FILE + 1])
def test_sha256_file_is_hashlib_sha256(tmp_path, size):
    # below LARGE_FILE the interpreter's own SHA-256, from it OpenSSL's
    data = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
    path = tmp_path / "f"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()

