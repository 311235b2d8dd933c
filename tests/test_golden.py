"""Golden CLI reports: the SHA-256 of the exact bytes each command emits.

Each digest covers the exit code, stdout and stderr of one in-process
`cli.main` call, so any change to a report's bytes fails here and has to
be made on purpose.  The construct cases are every valid (r, variant) at
s = 3 and s = 4; every other (r, variant) pair at those stocks is a
refusal, and their messages are pinned together by one digest.  The lift
cases cover every residue class over F_2, F_3, F_5 and F_7, and one lift
reads its pair from a certificate file.  The other commands, two usage
errors and every `--help` text are pinned too, with the terminal width
fixed so that argparse wraps them the same way everywhere.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beauville.cli import main

VARIANTS = ("standard", "shifted", "r1_special", "r8_special", "small_n", "s3_shortcut")

GOLDEN = {
    "--help":
        "b75fd51c45206b9b302b4c9e06d43ad8fa6cb9b333b96f498cfcd49b8cb0d807",
    "atlas --help":
        "4eb9f76011836e9d0d74e87adb6406e1d4b9dc5747e7948c35d97e5415281dd1",
    "atlas export --map A":
        "2c8de08dd301431b99148ea70076418ac32995cf7ed862737eb63a3cabcf3b6d",
    "atlas export --map B":
        "545ad3ce7c80ac53c58eb4303fd561c72e423ba2a322eaf2ee8e046a19ca53a5",
    "atlas export --map C":
        "c8be809f017a310987bb74a0e2eec5b6c2cc32f5a370ada88b13587d0f10d494",
    "atlas export --map D":
        "808976cf859e60ae572f5aefaec137038a6bccb8612f0c9c1ff063aca096a794",
    "atlas export --map E":
        "0aa5a3af4fdb391e9dcd7932e247fcc1f1c43609a0a2edd4b685a76aaa809795",
    "atlas export --map F":
        "c5143cd4f7d2e57c0adc96fa5a5fcab717c0029b20189fcb8ad202c264431d6e",
    "atlas export --map G":
        "9042f68fd1faef3ecf0927cc4fed6d71f8cd4eb01717437a8069656f36c44274",
    "atlas export --map H":
        "6f7aad91796151c9c62ebe8a32336aa5c39cadc0daa499a694e5573ab8b6ef01",
    "atlas export --map I":
        "cc3db95aef00c6a6453af5114c7e066c6bde82cc6d72b0a66a9c08843b1ed80a",
    "atlas export --map J":
        "2d32565ba96befb28a8c9b9cffea2383cc57288d214ffd59dce7c40136f66dff",
    "atlas export --map K":
        "926aa34f1345b9dbe78a93196af8ce557c6b76116725da078f54e74a050d34b4",
    "atlas export --map L":
        "3e42fb439dccdd092ae1655bd86236331460cea1bc1981bc57784782a1a670ac",
    "atlas export --map M":
        "b5c0e085393017d5a7cb51e701a104603f68356947ab46bed22111d0cef4baf9",
    "atlas export --map N":
        "a67b09f08f83cd6fa5e70784598485d7effd0d0a095fc551e234ef9f874440f8",
    "atlas validate":
        "f42e8deb89c28f925cd0df7b62279184d97248b90f411a842162c28545afdb6b",
    "atlas validate --format text":
        "2dd5b59f54d7881e21f55b0c0007332a5048f8b0ab0ef72ece304a991ff666fe",
    "certify --all-minimal":
        "e1d824cee287d2ca3a64ad0f67a0b42e1075fa49ed1697fe03709338ff61ce9c",
    "certify --help":
        "3ef418a708c3e079a05f91590bcb10d8bee91c42bb6f97a6ab7f6d1d1ab85341",
    "compose --help":
        "45b4bdd63069fd9efdadb258cc255311427b928af529e96016ac32868159c289",
    "compose 2G(1)G":
        "861465dcb1f274d7078369a01fb1577c76e24d7a11891f8e5fd800e21415ab59",
    "compose 3G(1)A":
        "31c1d5484ac13242ceb791358c5d75a585ed9d027bf9ccabd4b116af7a6ff466",
    "compose B(3)C(1)G(1)M(2)F":
        "be4fc09ecd76f91e9efa474701159bfa5dcb3432fe9fb5d3c86e26b3736f15fc",
    "compose L(2)M":
        "b83f59b8bafe401fa66f73470aaf837cb424a8d62007a145e19bbfb1ff53f7da",
    "compose G(1)2G":
        "459562eceb875f9878b4f9cbef77e2871c7b0b698af7dd72c1f27318268102cb",
    "construct --help":
        "1d887c535ffffd24dcc4a2bb0f9319e8765d0e3ce97e57b226a1ba8190920572",
    "construct --r 0 --s 3 --variant small_n":
        "459cca81a602dfd63603d6f1075d3bbdbf2abfe17e359d9141ae1dc7261e015e",
    "construct --r 0 --s 3 --variant standard":
        "d9f1dc94ef72b68c16be038dc85b4b5bfc928299909113bbc33fc2f024e3ae07",
    "construct --r 0 --s 4 --variant small_n":
        "1d61c695740a282154fb764ed8ad159eb1c23868b4e9999dbf0ee2df5f3a3c4c",
    "construct --r 0 --s 4 --variant standard":
        "7b0d056c6474a2538431f49ae02eb221e490c9a04915e10c008546c6d58731de",
    "construct --r 1 --s 3 --variant r1_special":
        "b61374d4300c8d99e32672e21b9f080b1a6128696713d10da8c2acd04656edaf",
    "construct --r 1 --s 3 --variant s3_shortcut":
        "81d495231f59dd697c3ec28e53c48cff782bc43e2318061ea934907a6c247624",
    "construct --r 1 --s 3 --variant small_n":
        "554a607f640ca8e30c15f3bb0378c23a6047f23b5566833de5481876c1b14fdb",
    "construct --r 1 --s 4 --variant r1_special":
        "7fb7d0338841a196afe19ef9aad02c4d6d8a5a52995917f6a7ca686fbc5d1060",
    "construct --r 1 --s 4 --variant s3_shortcut":
        "800d6a7f9554b0f1955d64f7a618f9438e2e952bbd1e513ba20662fd5e6626e1",
    "construct --r 1 --s 4 --variant small_n":
        "f1cd127928e2ba14c6256ea5e224ac5fb6c86f52e6b7d957757da851bc02971a",
    "construct --r 10 --s 3 --variant s3_shortcut":
        "3c5a9f28922df307ac6d8c13bff8ce67919b491297bf2d042a76abd973e2ec9d",
    "construct --r 10 --s 3 --variant shifted":
        "c2bade79e1b07cac852cde4654287134803f8175ea9407bd8b39ec69cda80a06",
    "construct --r 10 --s 4 --variant s3_shortcut":
        "8d6d899e9b1fd19592f03e388d69edc4d04b48a6122c854342af2d5df36eae01",
    "construct --r 10 --s 4 --variant shifted":
        "d008039e4525d937511c7f6ecf8a544925d27ab12c1a4acc5690df64d700b560",
    "construct --r 11 --s 3 --variant s3_shortcut":
        "7699525a1bd2e2b3b98aa37457d79440000b19413929f481c7f67a8c29222d37",
    "construct --r 11 --s 3 --variant shifted":
        "6e55494dc5918a4da0b79bca8c0f640346d96df8ec76f149411e026f3a0b3527",
    "construct --r 11 --s 3 --variant small_n":
        "34e5c2f23e0036cf89f3b3071b56c132318b327695ed98419b55844cef2b816f",
    "construct --r 11 --s 4 --variant s3_shortcut":
        "6853d0ac533838756ced25f8356ec87b4987b4ff0a803756d748a3b195ad6115",
    "construct --r 11 --s 4 --variant shifted":
        "a64737e940703047a1f862f5a39ccd631f064729ea2f15f8f147161f3ee37d1a",
    "construct --r 11 --s 4 --variant small_n":
        "5f6c4acb47b8e06b3d45748b7700246e76e770ac71ee0afc1c59596a378cddd2",
    "construct --r 12 --s 3 --variant small_n":
        "96bdfc082b3031d563b171e218ed2ac24850ebdea2143590b13de211dd996c30",
    "construct --r 12 --s 3 --variant standard":
        "db4a1ad1f298a202da0cf2670d1ed1f1eb6874414d766a65020ab8fe67ca229f",
    "construct --r 12 --s 4 --variant small_n":
        "1f956f14001c31b327bfab1cdd26c01b6d5cdb67bf63a84778e6b2354c7227e8",
    "construct --r 12 --s 4 --variant standard":
        "6ef1206b56697e00d5b24463b1237da91ca225fd9279c451e78f042bab49a9e0",
    "construct --r 13 --s 3 --variant small_n":
        "bb8b15a9e29ba0f27a8795c7216fc36b93cc3b335e92ad2b979d4cb6cc5d166b",
    "construct --r 13 --s 3 --variant standard":
        "c5b5787a449dd3864dbcffcb711f264435f12ef045846508c6b6d0b32327ab17",
    "construct --r 13 --s 4 --variant small_n":
        "2e7456f2d40b6a07b9c9f9284816b2b8bb9638bd831e3d5f62d9e71045435546",
    "construct --r 13 --s 4 --variant standard":
        "d60bbe35a9bf4c857493a5e74ff7a18dd00c8625ed14a78e709afb0a6a0a6b2a",
    "construct --r 2 --s 3 --variant small_n":
        "b440ca6a76dbe67399f62c20ba63607b2d81b8b1d545116f4b1169a592a8486b",
    "construct --r 2 --s 3 --variant standard":
        "ed3eebbba426fcaec8459fe84b17c0059f2ea2c12fbb635c6a049e8c632f7d67",
    "construct --r 2 --s 4 --variant small_n":
        "37f4f7d8fd3ad2c64e4edc04161e399fbfa59457b253715ed9c8e6e66c9efbe2",
    "construct --r 2 --s 4 --variant standard":
        "c2cd4f231da75cf601ed1bf4a380cce97bffb71edeab66c1842511c46004f5fd",
    "construct --r 3 --s 3 --variant small_n":
        "0ca74a89d310cc852236dc59a8aa6b79232f8c9dbdb26b4b66c58d09d30283b7",
    "construct --r 3 --s 3 --variant standard":
        "b891da6acd416b429615713f61c68e888736b65670cb64890d7c46ac880402c6",
    "construct --r 3 --s 4 --variant small_n":
        "a05b5ddcd99a6a29807eefe4f82360d2b37ab15301419615f857ac3d3511d148",
    "construct --r 3 --s 4 --variant standard":
        "cdddd7ba0725f3ffa2bb45cb85306d538d09786fbe1cb6206ff8a06a1768067a",
    "construct --r 4 --s 3 --variant standard":
        "f57f9be6d9e090c6d541bff8ad3a232232d07bdcec8b3a951a2131190ad23d8b",
    "construct --r 4 --s 4 --variant standard":
        "92cddb606772980e4ec45d0e8aa3318e95eafb58ad60d2c2994a9e4374c09634",
    "construct --r 5 --s 3 --variant small_n":
        "d5a6027fe9c9d4d807e2045613fba2b7b394962201bee52e8aeece2e8033c494",
    "construct --r 5 --s 3 --variant standard":
        "3fa197ac3cf9e0ebbae325c8aa0018123f88759e505cd7fad25f25cb2960e93e",
    "construct --r 5 --s 4 --variant small_n":
        "e550feb62477ed76f5399a9f9210e59cdc31ff3cc29996bb549bf3a2ce9f54a3",
    "construct --r 5 --s 4 --variant standard":
        "bfcdd2a0230022814c3fc5712b9547c4963dee906dc83e9c79c769cf39df61f6",
    "construct --r 6 --s 3 --variant s3_shortcut":
        "c6d554d553bff2c161f6ccdc50c5cb8d4a4abd6399ca725db98c66a0c822c35f",
    "construct --r 6 --s 3 --variant shifted":
        "bf8b771d0f725ad135e9e8d675ffabdc386dc3d0e3af2617631c75288776e887",
    "construct --r 6 --s 4 --variant s3_shortcut":
        "f11d2e728ac7bc5a529bb2c0f88b25b9142945dc060e8d9ad6d0c143c83e585f",
    "construct --r 6 --s 4 --variant shifted":
        "e6b3c5e23fff1b8ce5a84f7b12093592a7a054473dc96b404942a6496e017789",
    "construct --r 7 --s 3 --variant small_n":
        "44b9f10244f642ff75e26cd5e0423077a688e041a4db125e9522451d9a9d10a0",
    "construct --r 7 --s 3 --variant standard":
        "8bfe80f76e63855d55c1b8e3ce7dd595af3c01fd2a619f6b20ee48f6a192cc41",
    "construct --r 7 --s 4 --variant small_n":
        "8e524c354824b91c3ba1ef7c04f9edc2188c80205ec0ef7ced86416a619b9ca6",
    "construct --r 7 --s 4 --variant standard":
        "ea13402e192478487014b53121e16654f05ec19387001a3a6b910f4d4193f386",
    "construct --r 8 --s 3 --variant r8_special":
        "3f482983688e5374e841129348d462cd39130e7d504683528f7d97a64b0567ac",
    "construct --r 8 --s 3 --variant small_n":
        "41e838e9755d4294ac65eb68e0ede4f22a63600f99e09998eaf40e603e775f17",
    "construct --r 8 --s 4 --variant r8_special":
        "8eb11224fa899ccf8ca10077e4fb3a73019c7a7114a036ada843f90e73c5b13d",
    "construct --r 8 --s 4 --variant small_n":
        "49806d384d391cd218ececf9580ad6a508dad8f5593c50859e0519ebe8c59bbc",
    "construct --r 9 --s 3 --variant s3_shortcut":
        "53c282512f4c430ad52bc9b5b6021a2fac1484c0cdb08d03a986bece7b6ab7ac",
    "construct --r 9 --s 3 --variant shifted":
        "cbe98950b21dfee6bd4e6d6073399573d823836617241bbb57ecfd52f75bd436",
    "construct --r 9 --s 3 --variant small_n":
        "4458209a39e9fbfd7e9246baa9ef6872d2285fec17c61963f70b8668328a559b",
    "construct --r 9 --s 4 --variant s3_shortcut":
        "e087bdb00bdbdf471dee7ae11fd2da430362527bf0b04074da1b08cd299ae408",
    "construct --r 9 --s 4 --variant shifted":
        "d273f07ac68d04be6b45cf51569048690041135fdd062aa0990d82be50657e16",
    "construct --r 9 --s 4 --variant small_n":
        "5f7ebc7941a654988ffcfcd34e51b59fe8e2a607a8f191ceac904e9fad1cdad4",
    "cover --help":
        "56bfb43b14b947da573b29a8f02b64c95d12108bdaa01ae1aa39f0664e8725d7",
    "cover --r 0 --s 3":
        "40507b2043d73a5634b291ba82e067bd5e298231bddf777c62a507c2b003fb88",
    "cover --r 1 --s 3":
        "b9e87523fc162ec3a91db911e212f923ffae6f7ce279e04cf8f02a84581db0fb",
    "cover --r 10 --s 3":
        "4ac41421699fe2072540628e119af4f42a3cab8ace2d4ba4003f00a13fb51630",
    "cover --r 11 --s 3":
        "ed4a389bcaed72ecfe8e64b54fb29722c4bae2c6d606be714e48a295d7ec686a",
    "cover --r 12 --s 3":
        "a33e51335dbbc155bc8ba3eab2c86eef30a6bb108aff3237620823258193121f",
    "cover --r 13 --s 3":
        "1c38ab155aed52fd045bb1ea4aafa7c838ee12498359e042b4854a942ee6f487",
    "cover --r 2 --s 3":
        "4eb2d009625746f1e280ac2446cc5e1759a7561703eb68ee83829b4a976b016c",
    "cover --r 3 --s 3":
        "dbfaaf0c33eb880ec2c8700de2f3911945ebc1aedb9566fb048133081b666ac7",
    "cover --r 4 --s 3":
        "a72cfe81c81a3de7294435f4672bcad509c5ed17f8fe5570ee027f89e8f1d7e2",
    "cover --r 5 --s 3":
        "0b696f334daf9e43c9cf639238d9b51c95ed7f3a2c8dffcd5365c97f826e7d3a",
    "cover --r 6 --s 3":
        "d476bb8acdc770d2a3f30ad320d5ab1abf92aecc9b744b798268769d19113d67",
    "cover --r 7 --s 3":
        "94ed627d039b9f079500db6f87a269d2f9eb6cc52041f465d049e764021b5a51",
    "cover --r 8 --s 3":
        "0eb34e4f9e388217ed43ff903e21f534d64500d472a1861e52836580ae5e6df4",
    "cover --r 9 --s 3":
        "9afddabe3014c05995cb4525195aa4c2446f1117d1d7030101fcf8e2cec2dfc2",
    "frobenius --help":
        "f32d54685a4d3ae954bf1c06aab84b449d839008df55f3b735acd943a72f8586",
    "frobenius --table a5 --classes 2A,3A,5A":
        "2ab32c2ebb80cee3570015b4534b25cd7ab3c84b6a0000629472b6a28408a4a8",
    "frobenius --table l2_13 --classes 2A,3A,7A":
        "a51ad388c3d10d5a23ba580d36f950bcb930b9b2ca6e317e41ed90e1b57b552a",
    "lift --help":
        "45aa4676f4c555f9b7492eb606ca515375b47557525e44e596e8d14cb57b08e7",
    "lift --r 0 --s 3 --p 2 --t1 1":
        "b944793ce42a584e357739603ae8568a5ec854761967a69799ffc18d6b8c046d",
    "lift --r 0 --s 3 --p 3 --t1 2":
        "ae2e865fe51ec8254917148ed01e0c1e78439c6cfce22d1ba3db2622741cd5cb",
    "lift --r 0 --s 3 --p 5 --t1 2":
        "4b75760abf6086004ecc079256acd9a545575a5d7c6cf4d96c729e8ab695bd1a",
    "lift --r 0 --s 3 --p 7 --t1 3":
        "eacc908738a155e86ae0bae2bae2706af528e89f692c2958bd2d1cc26f4aa459",
    "lift --r 1 --s 3 --p 2 --t1 1":
        "bbfdab28559e079a4c06977888a9dc0fdb338d3166ea565063c990e6619b69b1",
    "lift --r 1 --s 3 --p 3 --t1 2":
        "291da3768b88ceb867e98dc98b11648000cfa5a24d6be08aaa8ba167b7a80791",
    "lift --r 1 --s 3 --p 5 --t1 2":
        "c15e049d3c447e399201bc6f8eb37ad64897b4adf6708476c55dcd35c30a6ca2",
    "lift --r 1 --s 3 --p 7 --t1 3":
        "0906be8e1797f3c1432bbdda636f1f070152f6494cd3c8983c17cf42b0fd684e",
    "lift --r 10 --s 3 --p 2 --t1 1":
        "b0babd8ef0eb0a741d41a6d0842e652e172487e6aae4d46f689c4550ec81f82b",
    "lift --r 10 --s 3 --p 3 --t1 2":
        "35667a65a22d32d029f16185af881e3fbf3d2d2b4a594a0b26c0c49f18b24a7f",
    "lift --r 10 --s 3 --p 5 --t1 2":
        "219037e37a8b641a564d75f968b1efd077455c13b167aa8fcd1e7eb600f80d17",
    "lift --r 10 --s 3 --p 7 --t1 3":
        "b06bd96dba53111de4beb19d8abcb6d45abd23a6c752e1c503f8df7f00ce502d",
    "lift --r 11 --s 3 --p 2 --t1 1":
        "4b20c06fcee786457761ace1e6a7832f061888708549eff7d54206c8c9d81940",
    "lift --r 11 --s 3 --p 3 --t1 2":
        "7433881ffcb6a972bb1e1d394758e7508db9447eeadc7c62179a7cbe0cc6e6db",
    "lift --r 11 --s 3 --p 5 --t1 2":
        "2216da21aafed96b04a962d90407d480a5e94e21a083874b22364c22d089abfe",
    "lift --r 11 --s 3 --p 7 --t1 3":
        "b398ad9b119a8741548083c7961b715b60c3320e8252ba24eeaf07f396a747c9",
    "lift --r 12 --s 3 --p 2 --t1 1":
        "286f2de2b01ddce2ed3fafb8f42c9dad70013d9020eb8f66c32fc0ea5a9052ac",
    "lift --r 12 --s 3 --p 3 --t1 2":
        "dd96d84d1cb50ad082f18986b8f71d7c1d2e7fad3d34b68cf097d61504633bf3",
    "lift --r 12 --s 3 --p 5 --t1 2":
        "7cea5dae29d86a668362ec8ab3a0a1168800beb3dc5a6bbfbe3aa3e1f20fd172",
    "lift --r 12 --s 3 --p 7 --t1 3":
        "6a5df320651a45c488c09fc032874fc9b3fb455ab93706fab660245ced25cfc4",
    "lift --r 13 --s 3 --p 2 --t1 1":
        "d18ff33f400c69a87ef938d08fa840c83810f4b04ef7f0fd9a263a8a61f1de26",
    "lift --r 13 --s 3 --p 3 --t1 2":
        "e33cbd387770d953ce2caaba81c254571c5b95b9c20a1f09dc9424bd44b9cb78",
    "lift --r 13 --s 3 --p 5 --t1 2":
        "1ac7997dd7723781f6810c119996ff934dbb509970a4d716588a493515d7f474",
    "lift --r 13 --s 3 --p 7 --t1 3":
        "8b94eb6096f010e0879bb1707f5aa0ec9ee4cdb46d73fce91f9cd8d909ba7e16",
    "lift --r 2 --s 3 --p 2 --t1 1":
        "5b0edd8ceda5bdcbca812490c208b352fe439f5a1585f5daedf6a51e20284263",
    "lift --r 2 --s 3 --p 3 --t1 2":
        "57b67f2edc5c28693b0fd80ec9476052e535de48d2943d6e03a36027a2465c42",
    "lift --r 2 --s 3 --p 5 --t1 2":
        "7b7f898f69839678bf64e8e5f50d912532a86392f2d56319e516b9b3689eec5b",
    "lift --r 2 --s 3 --p 7 --t1 3":
        "b9edc285a0f18000f19ad4265d445f9e4176e883c0767623be1eb1eb5691e9f0",
    "lift --r 3 --s 3 --p 2 --t1 1":
        "de2b98f56c7a67c66a2f5216f9c7b7a7123feb914400c8eaee70e4b09d998c50",
    "lift --r 3 --s 3 --p 3 --t1 2":
        "8e6eba17e5f8ec2b1ce8a8570a3c6d15b94f3459646d1fca294f20cf25b59db0",
    "lift --r 3 --s 3 --p 5 --t1 2":
        "227e71906d27247af7735c81102bd9db959bc912953621e9e0bcfad202291105",
    "lift --r 3 --s 3 --p 7 --t1 3":
        "d902dacaad7e7d2b7d7df39c98ab3a630a81c89ea8068ceda8fc73dcd0c77248",
    "lift --r 4 --s 3 --p 2 --t1 1":
        "b0211aae02b09761d03975da223c7312c0534aee6910666571a898c4b21d01dc",
    "lift --r 4 --s 3 --p 3 --t1 2":
        "a35de36a3b74bbea5a1596e7b65911e4dba8350a4d1d1bddd21ce02f14fff8d7",
    "lift --r 4 --s 3 --p 5 --t1 2":
        "d660c6cf934ecf3e80c89122e088be008d32a82deae88106a01b87560f89341a",
    "lift --r 4 --s 3 --p 7 --t1 3":
        "cf6e72eed3f2d4b649ff27a230d4adc0ac269854bad00b94179ac5c466c3858f",
    "lift --r 5 --s 3 --p 2 --t1 1":
        "b8450dcd496c992b915f32e897e699227624f030f2ae71a125078f5a8e6e5ec5",
    "lift --r 5 --s 3 --p 3 --t1 2":
        "131f616825216ea32399947785064bfd461f4ba0e556f6c886ab197667044df2",
    "lift --r 5 --s 3 --p 5 --t1 2":
        "714998dbfc87bec3535d2fb7e3d3564ec8546ba5f62a248caacd6b36e5ea3d68",
    "lift --r 5 --s 3 --p 7 --t1 3":
        "e9b5ade7c94930e96ff2ad0900536d0988191156db0688cbddf0b42c9ca2eed4",
    "lift --r 6 --s 3 --p 2 --t1 1":
        "2a5ecbf6c8027e8f48c764621a85aa34db334e12751f6f16645fd6d01a211b0e",
    "lift --r 6 --s 3 --p 3 --t1 2":
        "bfee7dc95de8f08ca08f3af84b6559028d39731b417a3801d7289681e2741422",
    "lift --r 6 --s 3 --p 5 --t1 2":
        "dd36704d709b4d99c7b35c94cb266ccf1d3e15e0fa617c752b9e806c75593a9a",
    "lift --r 6 --s 3 --p 7 --t1 3":
        "2f0db9a712f1ec1d56be039376b6665993a36bbe3c5463f5fffade5ad8113374",
    "lift --r 7 --s 3 --p 2 --t1 1":
        "68bcfab3e41373a1d7218ec699f5c71d9d70459fd8a165aace6c113156c1d044",
    "lift --r 7 --s 3 --p 3 --t1 2":
        "006552b3d8d9eba63dcb83b9ea9562bfccc0fbe9a245bef7607763f0f8a565a8",
    "lift --r 7 --s 3 --p 5 --t1 2":
        "936f6fc2dc3e685e74c2b3d0344e57a1bdca0d7e1895519d07794eed3e99bfbb",
    "lift --r 7 --s 3 --p 7 --t1 3":
        "045640bdd6b23aedcf2c0e3b76b06e361b2da7f8897ca19355691aa2b26bdfb4",
    "lift --r 8 --s 3 --p 2 --t1 1":
        "07f48b8f422c7883a651208b29fe4bbde7af02f30216febe80e6551ede196e36",
    "lift --r 8 --s 3 --p 3 --t1 2":
        "c4bb275528376477ad82d9db3a515274f4a5a042e2377bc44a3bec98d3e46f50",
    "lift --r 8 --s 3 --p 5 --t1 2":
        "757a39412147b8b02b311d03cfce1bd689c749b897affd0688a4387123542d53",
    "lift --r 8 --s 3 --p 7 --t1 3":
        "ba87a1ec1e784fc1baab541262deb3a106e919b2b48d82acb2d0aa4eb53ba457",
    "lift --r 9 --s 3 --p 2 --t1 1":
        "4dfbf2187475d164fcee8b5cf5e5753ac637c1fc5eb16b5f9e2311028984565a",
    "lift --r 9 --s 3 --p 3 --t1 2":
        "1bf632cf764d4fb5d07458ef50f8a7c9c5b1d252597375a88bf337065fd0121a",
    "lift --r 9 --s 3 --p 5 --t1 2":
        "ead1cf58f346432345c75e4f5064fdb51f6cc5e1226b572974a657e3cc013c51",
    "lift --r 9 --s 3 --p 7 --t1 3":
        "114ba9963501017ae22b530e0841694ed7e5031e3f9bb284edaf0846cac94315",
    "min-degree":
        "6d6fd86ab3f2861814fc78db5b90ee76315663dada74dd8f65411ab89307b180",
    "min-degree --g-max 2 --count-max 5":
        "5f4b8675e9c4623b2827a4898cd36857af1bb5fc89bf884d92b22721a350c5b6",
    "min-degree --help":
        "b7439568ca3d8ec626b428f8db022ad348cb933edf9d99b6e0e8886e522b3e37",
    "no-such-command":
        "331767f3cc4f304808f946153f619bbc0283c3be0869fd571745ea480f01a632",
}

LIFT_FROM_FILE = "641a42c82a13ebc5b8c9958a08bc4d75cefffadab03ff0eecfbf4c4246d716d2"

REFUSALS = "97536816b456d8f8f70750f561c588107ecbf16949252d453b01d9376fd30b13"


def _run(capsys, argv):
    code = main(argv.split())
    out, err = capsys.readouterr()
    return code, out, err


def _digest(code, out, err):
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


def _construct_argv(r, variant, s):
    return f"construct --r {r} --s {s} --variant {variant}"


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(*_run(capsys, argv)) == GOLDEN[argv]


def test_construct_refusals(capsys):
    lines = []
    for s in (3, 4):
        for r in range(14):
            for variant in VARIANTS:
                argv = _construct_argv(r, variant, s)
                if argv in GOLDEN:
                    continue
                code, out, err = _run(capsys, argv)
                assert (code, out) == (2, ""), argv
                lines.append(f"{argv}: {err}")
    assert len(lines) == 2 * (14 * len(VARIANTS) - 30)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == REFUSALS


def test_lift_from_certificate_file(capsys, tmp_path, monkeypatch):
    # a relative path keeps the report's "source" field the same on every run
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, "certify --r 0 --s 6 --out c.json")[0] == 0
    cert = json.loads((tmp_path / "c.json").read_text())["result"][0]["certificate"]
    (tmp_path / "pair.json").write_text(json.dumps(cert))
    report = _run(capsys, "lift --p 3 --t1 2 --pair pair.json")
    assert _digest(*report) == LIFT_FROM_FILE


@pytest.mark.parametrize("hash_seed", ["0", "777"])
def test_all_minimal_bytes_under_optimize_and_hash_seeds(hash_seed):
    # a fresh interpreter per hash seed and command, with asserts stripped by -O
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for argv in ("certify --all-minimal", "compose B(3)C(1)G(1)M(2)F"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "beauville", *argv.split()],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        digest = _digest(proc.returncode, proc.stdout, proc.stderr)
        assert digest == GOLDEN[argv], (argv, proc.stderr)
