import json
import struct

import pytest

from duvlg import checkpoint as ck


@pytest.fixture()
def edit_header():
    """``edit_header(src, dst, edit)`` copies checkpoint ``src`` to ``dst``
    with its JSON header passed through ``edit`` (which mutates it in place)."""
    def rewrite(src, dst, edit):
        blob = src.read_bytes()
        hlen = struct.unpack_from("<II", blob, 9)[1]
        header = json.loads(blob[17:17 + hlen])
        edit(header)
        new = json.dumps(header, sort_keys=True).encode()
        dst.write_bytes(blob[:9] + struct.pack("<II", ck.VERSION, len(new)) + new + blob[17 + hlen:])

    return rewrite
