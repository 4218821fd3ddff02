"""Golden byte lock: SHA-256 of the CSV and summary.json bytes of fixed runs.

Every run is a pure function of (config, algorithm, seed), so a refactor of
the round engine must leave these digests unchanged. A deliberate change of
output re-baselines them; print the current digests with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib

from wsnsim import FieldConfig, RadioParams, algorithm_names, run_simulation
from wsnsim.reporting import round_csv_text, summary_json_text

SEEDS = (0, 1, 2)
# N x H exceeds the membership block size on most rounds of this field.
MULTI_BLOCK_FIELD = FieldConfig(node_count=2000, max_rounds=20)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(field: FieldConfig, seeds) -> dict[str, str]:
    radio = RadioParams()
    summaries = [run_simulation(field, radio, name, seed)
                 for name in algorithm_names() for seed in seeds]
    out = {f"{s.algorithm}/seed-{s.seed}.csv": _sha(round_csv_text(s))
           for s in summaries}
    out["summary.json"] = _sha(summary_json_text(summaries))
    return out


def default_field_digests() -> dict[str, str]:
    """All 18 algorithms x seeds 0-2 on the default field, to extinction."""
    return _digests(FieldConfig(), SEEDS)


def multi_block_digests() -> dict[str, str]:
    return _digests(MULTI_BLOCK_FIELD, (0,))


GOLDEN_DEFAULT = {
    'leach/seed-0.csv': '6b488c9ffeea10463502d6306b8b8120f491805856b5f1dbf5fcd6a77a9138f9',
    'leach/seed-1.csv': '4d119080e522978c670549f8f0f633e611f4ebd6c776e8c7385b37d8f619c679',
    'leach/seed-2.csv': '41b6cecb3cf2e039ae73fd06e9cf260531d7ffd9efec85e01c816183651c0fb9',
    'leach-kp/seed-0.csv': '0a1f56e280b65c80a49ad884615ee6baa12b882dd1d904b0ef6827bcdea93344',
    'leach-kp/seed-1.csv': 'a853fbb150fc1a529766744f6c71ef6d39dd7a42b93de6b32887a5ccf8e33bd9',
    'leach-kp/seed-2.csv': 'e18f5202d82637223a9781645868a1cfba64e8b6832c9d34bc6705f1b953da9b',
    'leach-kep/seed-0.csv': 'f82e45f8ddc990be1fb2a7ab55db852cdd9dfe4274a242b51b074b21b0063dd8',
    'leach-kep/seed-1.csv': '879aa7110dcb1764b94e502ecdb86ec84b9436f3aac710ce6ce2b0ac7cec2556',
    'leach-kep/seed-2.csv': 'd4dcc0e12cabeea0e54e17a7e6e4b78c1a157206cde4268baccd36e290c97633',
    'leach-kef-1-1/seed-0.csv': '4a411c598c3c12a623baffc4b46250eb83d9ebbd5fce485bc628524342e408c9',
    'leach-kef-1-1/seed-1.csv': '3a49186003880fd79cd1609b628438700cbc44b86dd4bf6af93290b094ca0c6d',
    'leach-kef-1-1/seed-2.csv': '45ab27654bfc2ef37e59c5f66940c9d3146ae7137edfba973712056d43b2e48d',
    'leach-kef-1-1-p/seed-0.csv': '777099f5f7f8e517b37f23fe3be0511dd971dd43513158b7e34f0b431d48bb29',
    'leach-kef-1-1-p/seed-1.csv': '56c78ffab77b1b1d79454d47459592066078ae3ee124829a77b42c17c42a7aab',
    'leach-kef-1-1-p/seed-2.csv': '78a010d634f1869154f053b4f531abf570cc8e231ff1d5bf32ec3d31cca8fd2e',
    'leach-kef-1-1-p-learning/seed-0.csv': 'f2c0af961cda06b2c3ad81b1aa1ec9d88b198fc077e6c33f72fcf689ee359c10',
    'leach-kef-1-1-p-learning/seed-1.csv': '0d0c5a118d1a4b27c36085442031248dd94756616394a478077ec9f482b4b654',
    'leach-kef-1-1-p-learning/seed-2.csv': '3ab2064423c45ce0b04544902a8fe187adfbcd019fa318e39aaf4d4c0da9a2de',
    'leach-kef-1-2/seed-0.csv': 'd42aa33119c65977bfb6e31a77ef6cfb5a552088b6f2d46e4b8e9535c421ffe3',
    'leach-kef-1-2/seed-1.csv': '54082fe089b6f2f1a66d2ae018b030628905c4400d22718c49b7cadd0d85f9f2',
    'leach-kef-1-2/seed-2.csv': '257ec4daae3d948181ad3e1a1aa604887ac2214dbadda3f8bca88cac3f838c06',
    'leach-kef-1-2-p/seed-0.csv': 'e9ac9681a9cea350979d22dc47952332556df1073c403456d42e42c17b8aef81',
    'leach-kef-1-2-p/seed-1.csv': '70463ddfbff043a6c119479e14bc620de310d23891fe6ac38dcf368684494708',
    'leach-kef-1-2-p/seed-2.csv': 'a25c649a1fcd28ad3d096321227fa92a8f0538b02f3f695b0bd61f525e9ab72b',
    'leach-kef-1-2-p-learning/seed-0.csv': '661a5bd287a66473562d161e37b74201d8f96be0c5ad5b7b928507469a855f3a',
    'leach-kef-1-2-p-learning/seed-1.csv': '0e4827be8a9ee8051aa4a31343225ad8cc0f9d5a3aa3cefee11a7d07d913eab6',
    'leach-kef-1-2-p-learning/seed-2.csv': 'f84713af003d08257df5d31473b36f33b6cf710909b89c4b4aa67c329fbd839a',
    'sep/seed-0.csv': '657f216ea67ad7b1e7eb091757ddd2a750626f1376930bc1b49f4084d0457fd3',
    'sep/seed-1.csv': '8f4e9eef6f1d31ce9d77388fcaef498be0310318bf095563a8329c35fc1c821a',
    'sep/seed-2.csv': '35070d801fb9258c2f561fe40e9ca57c7ec50f91bb1806afddb2a267be430f7d',
    'sep-kp/seed-0.csv': '7938ada8ecacd0e063fcb6c36fba0e2aa27de5f96b7a21bc85649883c17f2b9f',
    'sep-kp/seed-1.csv': 'bd97d094753ffe2798f056fb37eef42b54dec0e289e67cb25ccef3a7067448fd',
    'sep-kp/seed-2.csv': '4f62a5a4ff44d220aa74e99f8b871acc0851302cf2e3404c1d43d88cd9e3a2b2',
    'sep-kep/seed-0.csv': 'faf68ed64a145fe83e51ffb85ab3b60fc6246f9112f41f6d3a5e31e07852a59d',
    'sep-kep/seed-1.csv': 'ba169b73111bd7c5960473f8290399d7a1b2340bb74314cb3064636f593ce911',
    'sep-kep/seed-2.csv': '7c031a78a78ce42b3767349901c2972e1be1c9aee14c46d982766527b0814546',
    'sep-kef-1-1/seed-0.csv': '6cd536d3a3a4e7dbc2caabe9154e06accb0cf18f0f365410d61cbb99f2e9a354',
    'sep-kef-1-1/seed-1.csv': 'cf7d53d0051fb20fc075fa3a30344ec983680b355c3917442ff9ae3c4a39f6ef',
    'sep-kef-1-1/seed-2.csv': '44baaa6b9d6d1a594d2ffd7fe984b87dbec3c4c24aa346d0fe4ce13a6d3b54b6',
    'sep-kef-1-1-p/seed-0.csv': '90258ff66532a0f70552a19d401d30266f1dbfc0d8ed228a26f7c7d7b7d2a6bc',
    'sep-kef-1-1-p/seed-1.csv': '7dfc8f337af3a0b8939db92282915ada4954beb495964efda5ef5a50ddc4106d',
    'sep-kef-1-1-p/seed-2.csv': 'c65233b9246f308097e50aae92fba5261bcbbaa0d79779f3d16d436b78b0c034',
    'sep-kef-1-1-p-learning/seed-0.csv': 'aee67475aaa086f1b0a755f066ac4b4c8b1ac560cf30a1f306af8160088ec08c',
    'sep-kef-1-1-p-learning/seed-1.csv': 'fbdfaef27096f16bf774f424a4b6549d87462e9883a8fa234ff2ac153cec8d2b',
    'sep-kef-1-1-p-learning/seed-2.csv': '8fd47644ca21f09e5a4e36b9b3f89bc8d3a88a1518a6f0155acc93842e045107',
    'sep-kef-1-2/seed-0.csv': '0bc830ff1ba129e69063c89b3b60a6133b095af4223187bb115a06881046f069',
    'sep-kef-1-2/seed-1.csv': '29fa58a8263bb9215ae73748429017802ec6fc9fd6e75b1e540497b03344d223',
    'sep-kef-1-2/seed-2.csv': '12e290bbed7a06eaa2e39d17321f5001863e082fdbf9e80f9f9f53c0de7e8f56',
    'sep-kef-1-2-p/seed-0.csv': '492f95816ca26a894ddd5aa854fa81070db7faabc8f903e8088b3b850a892448',
    'sep-kef-1-2-p/seed-1.csv': '6592e2d358332efb8595f46ecf0ee5182430103067eea2a13b8ed114d7e391ac',
    'sep-kef-1-2-p/seed-2.csv': 'a81a20806914888c7f646bb91f0c55b23450bc43088c39e1499183c789cc4947',
    'sep-kef-1-2-p-learning/seed-0.csv': 'c98ffd8c92b4dfb34123cb51c4dfe8170886854b4cf204e1a0115953ec615306',
    'sep-kef-1-2-p-learning/seed-1.csv': 'c118d4e4247d906d8e0119f0d51a6f45d3c4555d8c511d6237b2a284161fb871',
    'sep-kef-1-2-p-learning/seed-2.csv': 'ca9995c8f3165d4e7b450e9e25ebf3e8112fbb6a9b30b7f7bea48df6f48e8cdc',
    'summary.json': '245b7cfb62a17828813caa153ace3580fd4e751b684822a8f1bcf7af1cda0471',
}

GOLDEN_MULTI_BLOCK = {
    'leach/seed-0.csv': 'cd177cafb1948c60b37f502baa8bc132a7ee2d9c07b82358c734277cb9c16b65',
    'leach-kp/seed-0.csv': '253928ae7f0c2626cd54b824bfa7f954522c5c8dc32bffd9e75a96c1d62553fe',
    'leach-kep/seed-0.csv': '5d6b3f82a5ad310e87571b8276babe62fbc2a882fd1c9fe7fc386be02ed21481',
    'leach-kef-1-1/seed-0.csv': '02d468db10f5cd2d42737d09fac9dfd8f4eb91229588d1ad4aee9061c1edf8bd',
    'leach-kef-1-1-p/seed-0.csv': 'f22e231d5d333f164875e820b580473a78de6bf498f1d03703c35a20a5dd4c81',
    'leach-kef-1-1-p-learning/seed-0.csv': 'f22e231d5d333f164875e820b580473a78de6bf498f1d03703c35a20a5dd4c81',
    'leach-kef-1-2/seed-0.csv': '5e0627d99ba1c61357944894290374844602ec5dbcccdb743077b5f5fc8c027e',
    'leach-kef-1-2-p/seed-0.csv': '58d0a1306d479cfe8d66f64ef00408c1dd315b120d9ca2bb1c9b5f050bb70edd',
    'leach-kef-1-2-p-learning/seed-0.csv': '58d0a1306d479cfe8d66f64ef00408c1dd315b120d9ca2bb1c9b5f050bb70edd',
    'sep/seed-0.csv': '1b1571b99707392ff3b2a3e6d2a36d656bf31a3bd56d81f7d3d27b5ce768ffcd',
    'sep-kp/seed-0.csv': '3bd788c92381adb7cda61278050b636919506c9ee6865e429fd14250639ea969',
    'sep-kep/seed-0.csv': 'bd1788d0c88a26dc18a726e39ad40bb52cbd01594339bea44be66beec63c19aa',
    'sep-kef-1-1/seed-0.csv': 'b7fa5b064d2bd21b06896499daca17fe331d72022180a58258a5adfa25b38768',
    'sep-kef-1-1-p/seed-0.csv': 'd77e7c4a51bda0390f9bfd59415c3f18612b293bab6b3c7ea870cc88a70803f0',
    'sep-kef-1-1-p-learning/seed-0.csv': 'd77e7c4a51bda0390f9bfd59415c3f18612b293bab6b3c7ea870cc88a70803f0',
    'sep-kef-1-2/seed-0.csv': 'f27e929f831fdcb1574a4d370b3c6c7fe871115a9c88fa8d2e70ffaba9c9cf54',
    'sep-kef-1-2-p/seed-0.csv': 'fd8fb6b16eb20e5e72b22765520e9a4699eb6b1fe51c5deab58660738ae68719',
    'sep-kef-1-2-p-learning/seed-0.csv': 'fd8fb6b16eb20e5e72b22765520e9a4699eb6b1fe51c5deab58660738ae68719',
    'summary.json': '8ceacd31d27391163cf480b46cc7e82cb2b0a682084f9eeafd9d1767df34c072',
}


def test_default_field_bytes():
    assert default_field_digests() == GOLDEN_DEFAULT


def test_multi_block_field_bytes():
    assert multi_block_digests() == GOLDEN_MULTI_BLOCK


if __name__ == "__main__":
    for label, digests in (("GOLDEN_DEFAULT", default_field_digests()),
                           ("GOLDEN_MULTI_BLOCK", multi_block_digests())):
        print(f"{label} = {{")
        for key, value in digests.items():
            print(f"    {key!r}: {value!r},")
        print("}\n")
